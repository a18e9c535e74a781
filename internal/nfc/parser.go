package nfc

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads NF-C source into its action definitions.
func Parse(src string) ([]*ActionAST, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var actions []*ActionAST
	for !p.at(tokEOF, "") {
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		actions = append(actions, a)
	}
	if len(actions) == 0 {
		return nil, fmt.Errorf("nfc: no NFAction definitions")
	}
	seen := make(map[string]bool, len(actions))
	for _, a := range actions {
		if seen[a.Name] {
			return nil, fmt.Errorf("nfc: duplicate NFAction %q", a.Name)
		}
		seen[a.Name] = true
	}
	return actions, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) eat(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		t := p.cur()
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, fmt.Errorf("nfc: line %d: expected %q, found %q", t.line, want, t.text)
	}
	t := p.cur()
	p.pos++
	return t, nil
}

func (p *parser) parseAction() (*ActionAST, error) {
	kw, err := p.eat(tokIdent, "NFAction")
	if err != nil {
		return nil, err
	}
	if _, err := p.eat(tokPunct, "("); err != nil {
		return nil, err
	}
	name, err := p.eat(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.eat(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ActionAST{Name: name.text, Body: body, Line: kw.line}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.eat(tokPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(tokPunct, "}") {
		if p.at(tokEOF, "") {
			return nil, fmt.Errorf("nfc: unexpected end of input inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // consume }
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent && t.text == "if":
		return p.parseIf()
	case t.kind == tokIdent && t.text == "Emit":
		p.pos++
		if _, err := p.eat(tokPunct, "("); err != nil {
			return nil, err
		}
		ev, err := p.eat(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.eat(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &EmitStmt{Event: eventName(ev.text), Line: t.line}, nil
	case t.kind == tokIdent && t.text == "var":
		p.pos++
		name, err := p.eat(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokPunct, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &VarStmt{Name: name.text, Expr: e, Line: t.line}, nil
	default:
		return p.parseAssign()
	}
}

// eventName maps Emit's identifier to an NFEvent name: the Event_
// prefix is stripped and the remainder lowercased, so Emit(Event_Packet)
// raises "packet" (Listings 2 and 4 pair exactly this way).
func eventName(ident string) string {
	return strings.ToLower(strings.TrimPrefix(ident, "Event_"))
}

func (p *parser) parseIf() (Stmt, error) {
	t, err := p.eat(tokIdent, "if")
	if err != nil {
		return nil, err
	}
	if _, err := p.eat(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.eat(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.at(tokIdent, "else") {
		p.pos++
		els, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.line}, nil
}

func (p *parser) parseAssign() (Stmt, error) {
	t := p.cur()
	lv, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	op := p.cur()
	if op.kind != tokPunct || (op.text != "=" && op.text != "+=" && op.text != "-=") {
		return nil, fmt.Errorf("nfc: line %d: expected assignment operator, found %q", op.line, op.text)
	}
	p.pos++
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.eat(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &AssignStmt{LV: lv, Op: op.text, Expr: e, Line: t.line}, nil
}

func (p *parser) parseLValue() (LValue, error) {
	name, err := p.eat(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if root, ok := ParseRoot(name.text); ok {
		if _, err := p.eat(tokPunct, "."); err != nil {
			return nil, err
		}
		field, err := p.eat(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &RefLV{Root: root, Field: field.text}, nil
	}
	return &VarLV{Name: name.text}, nil
}

// Expression parsing: precedence climbing.
var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) {
	return p.parseBinary(1)
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binaryPrec[t.text]
		if t.kind != tokPunct || !ok || prec < minPrec {
			return left, nil
		}
		p.pos++
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.text, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseUint(t.text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("nfc: line %d: %w", t.line, err)
		}
		return &NumberLit{Val: v}, nil
	case t.kind == tokPunct && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.eat(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.pos++
		if root, ok := ParseRoot(t.text); ok {
			if _, err := p.eat(tokPunct, "."); err != nil {
				return nil, err
			}
			field, err := p.eat(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return &RefExpr{Root: root, Field: field.text}, nil
		}
		return &VarExpr{Name: t.text}, nil
	default:
		return nil, fmt.Errorf("nfc: line %d: unexpected token %q in expression", t.line, t.text)
	}
}
