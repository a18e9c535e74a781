package nfc

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// maxLocals is the per-action temporary variable budget: NF-C locals
// are allocated into the NFTask's temp word array by the compiler
// (§VI-A), which has eight slots.
const maxLocals = 8

// Schema declares the fields addressable under each state root, in
// order; the compiler resolves field names to indexes against it.
// RootPacket is implicitly schema'd by the builtin packet field table.
type Schema map[Root][]string

// Compiled is one NF-C action lowered to executable form, carrying the
// read/write visibility granular decomposition extracts.
type Compiled struct {
	// Name is the NFAction name.
	Name string
	// Reads and Writes list the fields accessed per root, sorted.
	Reads, Writes map[Root][]string
	// Events are the event names the action can emit, in first-emission
	// source order (the interpreter returns indexes into this list).
	Events []string
	// NumLocals is the count of temp-word slots used.
	NumLocals int
	// Cost is the instruction-count estimate charged per execution.
	Cost uint64
	run  func(e *model.Exec, s *Store) int // returns event index or -1
}

// packetField describes a builtin Packet.* accessor.
type packetField struct {
	get  func(p *pkt.Packet) uint64
	set  func(p *pkt.Packet, v uint64)
	off  uint64 // wire offset for the FieldRef span
	size uint64
}

// packetFields is the builtin packet schema: name → accessor + wire
// span (for prefetch/charging declarations).
var packetFields = map[string]packetField{
	"src_ip": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.Tuple.SrcIP) },
		set: func(p *pkt.Packet, v uint64) { p.Tuple.SrcIP = uint32(v) },
		off: pkt.EthLen + 12, size: 4,
	},
	"dst_ip": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.Tuple.DstIP) },
		set: func(p *pkt.Packet, v uint64) { p.Tuple.DstIP = uint32(v) },
		off: pkt.EthLen + 16, size: 4,
	},
	"src_port": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.Tuple.SrcPort) },
		set: func(p *pkt.Packet, v uint64) { p.Tuple.SrcPort = uint16(v) },
		off: pkt.EthLen + pkt.IPv4Len, size: 2,
	},
	"dst_port": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.Tuple.DstPort) },
		set: func(p *pkt.Packet, v uint64) { p.Tuple.DstPort = uint16(v) },
		off: pkt.EthLen + pkt.IPv4Len + 2, size: 2,
	},
	"proto": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.Tuple.Proto) },
		set: func(p *pkt.Packet, v uint64) { p.Tuple.Proto = uint8(v) },
		off: pkt.EthLen + 9, size: 1,
	},
	"wire_len": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.WireLen) },
		set: func(p *pkt.Packet, v uint64) { p.WireLen = int(v) },
		off: pkt.EthLen + 2, size: 2,
	},
	"teid": {
		get: func(p *pkt.Packet) uint64 { return uint64(p.TEID) },
		set: func(p *pkt.Packet, v uint64) { p.TEID = uint32(v) },
		off: pkt.EthLen + pkt.IPv4Len + pkt.UDPLen + 4, size: 4,
	},
}

// PacketFieldNames returns the builtin Packet.* field names, sorted.
func PacketFieldNames() []string {
	names := make([]string, 0, len(packetFields))
	for n := range packetFields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// compiler carries per-action lowering state.
type compiler struct {
	schema Schema
	locals map[string]int
	reads  map[Root]map[string]bool
	writes map[Root]map[string]bool
	events []string
	evIdx  map[string]int
	cost   uint64
}

// Compile lowers one parsed action against the schema.
func Compile(a *ActionAST, schema Schema) (*Compiled, error) {
	c := &compiler{
		schema: schema,
		locals: make(map[string]int),
		reads:  make(map[Root]map[string]bool),
		writes: make(map[Root]map[string]bool),
		evIdx:  make(map[string]int),
	}
	body, err := c.stmts(a.Body)
	if err != nil {
		return nil, fmt.Errorf("nfc: action %s: %w", a.Name, err)
	}
	out := &Compiled{
		Name:      a.Name,
		Reads:     flatten(c.reads),
		Writes:    flatten(c.writes),
		Events:    append([]string(nil), c.events...),
		NumLocals: len(c.locals),
		Cost:      c.cost + 5,
		run: func(e *model.Exec, s *Store) int {
			for _, fn := range body {
				if ev := fn(e, s); ev >= 0 {
					return ev
				}
			}
			return -1
		},
	}
	return out, nil
}

func flatten(m map[Root]map[string]bool) map[Root][]string {
	out := make(map[Root][]string, len(m))
	for root, set := range m {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		out[root] = names
	}
	return out
}

// stmtFn executes one statement against the task and its module's
// per-flow store; a return ≥ 0 is an emitted event index.
type stmtFn func(e *model.Exec, s *Store) int

// exprFn evaluates one expression.
type exprFn func(e *model.Exec, s *Store) uint64

// setFn stores one value.
type setFn func(e *model.Exec, s *Store, v uint64)

func (c *compiler) stmts(list []Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(list))
	for _, s := range list {
		fn, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (c *compiler) stmt(s Stmt) (stmtFn, error) {
	switch s := s.(type) {
	case *EmitStmt:
		idx, ok := c.evIdx[s.Event]
		if !ok {
			idx = len(c.events)
			c.events = append(c.events, s.Event)
			c.evIdx[s.Event] = idx
		}
		c.cost++
		return func(*model.Exec, *Store) int { return idx }, nil

	case *VarStmt:
		if _, dup := c.locals[s.Name]; dup {
			return nil, fmt.Errorf("line %d: redeclared local %q", s.Line, s.Name)
		}
		if len(c.locals) >= maxLocals {
			return nil, fmt.Errorf("line %d: more than %d locals", s.Line, maxLocals)
		}
		val, err := c.expr(s.Expr)
		if err != nil {
			return nil, err
		}
		slot := len(c.locals)
		c.locals[s.Name] = slot
		c.cost++
		return func(e *model.Exec, st *Store) int {
			e.Temp[slot] = val(e, st)
			return -1
		}, nil

	case *AssignStmt:
		val, err := c.expr(s.Expr)
		if err != nil {
			return nil, err
		}
		c.cost += 2
		switch lv := s.LV.(type) {
		case *VarLV:
			slot, ok := c.locals[lv.Name]
			if !ok {
				return nil, fmt.Errorf("line %d: undeclared local %q (use var)", s.Line, lv.Name)
			}
			op := s.Op
			return func(e *model.Exec, st *Store) int {
				applyOp(&e.Temp[slot], op, val(e, st))
				return -1
			}, nil
		case *RefLV:
			get, set, err := c.resolve(lv.Root, lv.Field, s.Line, true)
			if err != nil {
				return nil, err
			}
			if s.Op != "=" {
				// Compound assignment also reads.
				if _, _, err := c.resolve(lv.Root, lv.Field, s.Line, false); err != nil {
					return nil, err
				}
			}
			op := s.Op
			return func(e *model.Exec, st *Store) int {
				if op == "=" {
					set(e, st, val(e, st))
				} else {
					cur := get(e, st)
					applyOp(&cur, op, val(e, st))
					set(e, st, cur)
				}
				return -1
			}, nil
		default:
			return nil, fmt.Errorf("line %d: bad lvalue", s.Line)
		}

	case *IfStmt:
		cond, err := c.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.stmts(s.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.stmts(s.Else)
		if err != nil {
			return nil, err
		}
		c.cost += 2
		return func(e *model.Exec, st *Store) int {
			branch := els
			if cond(e, st) != 0 {
				branch = then
			}
			for _, fn := range branch {
				if ev := fn(e, st); ev >= 0 {
					return ev
				}
			}
			return -1
		}, nil

	default:
		return nil, fmt.Errorf("unknown statement %T", s)
	}
}

func applyOp(dst *uint64, op string, v uint64) {
	switch op {
	case "=":
		*dst = v
	case "+=":
		*dst += v
	case "-=":
		*dst -= v
	}
}

// resolve type-checks root.field, records the access, and returns the
// field's run-time load and store. Only Packet and PerFlowState bind
// at run time: a packet reference captures its builtin accessor, a
// per-flow one its index into the module's Store. Other roots are
// checked against the schema for the access sets alone; ToAction
// refuses an action that touches one, so their accessors stay nil.
func (c *compiler) resolve(root Root, field string, line int, write bool) (exprFn, setFn, error) {
	var get exprFn
	var set setFn
	if root == RootPacket {
		pf, ok := packetFields[field]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown packet field %q (have %s)",
				line, field, strings.Join(PacketFieldNames(), ", "))
		}
		get = func(e *model.Exec, _ *Store) uint64 { return pf.get(e.Pkt) }
		set = func(e *model.Exec, _ *Store, v uint64) { pf.set(e.Pkt, v) }
	} else {
		fields, ok := c.schema[root]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: no %s schema declared", line, root)
		}
		idx := slices.Index(fields, field)
		if idx < 0 {
			return nil, nil, fmt.Errorf("line %d: unknown %s field %q", line, root, field)
		}
		if root == RootPerFlow {
			get = func(e *model.Exec, s *Store) uint64 { return s.vals[e.FlowIdx][idx] }
			set = func(e *model.Exec, s *Store, v uint64) { s.vals[e.FlowIdx][idx] = v }
		}
	}
	accesses := c.reads
	if write {
		accesses = c.writes
	}
	if accesses[root] == nil {
		accesses[root] = make(map[string]bool)
	}
	accesses[root][field] = true
	return get, set, nil
}

func (c *compiler) expr(x Expr) (exprFn, error) {
	switch x := x.(type) {
	case *NumberLit:
		v := x.Val
		return func(*model.Exec, *Store) uint64 { return v }, nil
	case *VarExpr:
		slot, ok := c.locals[x.Name]
		if !ok {
			return nil, fmt.Errorf("undeclared local %q", x.Name)
		}
		return func(e *model.Exec, _ *Store) uint64 { return e.Temp[slot] }, nil
	case *RefExpr:
		get, _, err := c.resolve(x.Root, x.Field, 0, false)
		if err != nil {
			return nil, err
		}
		c.cost++
		return get, nil
	case *UnaryExpr:
		inner, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		c.cost++
		switch x.Op {
		case "-":
			return func(e *model.Exec, st *Store) uint64 { return -inner(e, st) }, nil
		case "!":
			return func(e *model.Exec, st *Store) uint64 {
				if inner(e, st) == 0 {
					return 1
				}
				return 0
			}, nil
		default:
			return nil, fmt.Errorf("unknown unary %q", x.Op)
		}
	case *BinaryExpr:
		l, err := c.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(x.R)
		if err != nil {
			return nil, err
		}
		c.cost++
		op := x.Op
		return func(e *model.Exec, st *Store) uint64 {
			a, b := l(e, st), r(e, st)
			switch op {
			case "+":
				return a + b
			case "-":
				return a - b
			case "*":
				return a * b
			case "/":
				if b == 0 {
					return 0
				}
				return a / b
			case "%":
				if b == 0 {
					return 0
				}
				return a % b
			case "&":
				return a & b
			case "|":
				return a | b
			case "^":
				return a ^ b
			case "<<":
				return a << (b & 63)
			case ">>":
				return a >> (b & 63)
			case "==":
				return b2u(a == b)
			case "!=":
				return b2u(a != b)
			case "<":
				return b2u(a < b)
			case ">":
				return b2u(a > b)
			case "<=":
				return b2u(a <= b)
			case ">=":
				return b2u(a >= b)
			case "&&":
				return b2u(a != 0 && b != 0)
			case "||":
				return b2u(a != 0 || b != 0)
			default:
				return 0
			}
		}, nil
	default:
		return nil, fmt.Errorf("unknown expression %T", x)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
