// Package nfc implements NF-C, the paper's C-like DSL for NFAction
// logic (§IV-B, Listing 4). NF-C code names NFStates through the
// extended keywords Packet, PerFlowState, SubFlowState, ControlState
// and TempState; Compile type-checks all five against a schema and
// extracts each action's read and write sets — the deep visibility
// granular decomposition requires, and what cmd/nfc dumps.
//
// At run time only Packet and PerFlowState bind: ToAction ties a
// compiled action to its module's per-flow Store and produces an
// executable model.Action whose local variables live in the NFTask's
// temp words (§VI-A). An action touching SubFlowState, ControlState or
// TempState compiles but does not bind.
package nfc

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokenKind discriminates lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // single- or double-character operator/punctuation
)

type token struct {
	kind tokenKind
	text string
	line int
}

// lex tokenizes src. Comments use // to end of line.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == 'x' || src[j] == 'X' ||
				(src[j] >= 'a' && src[j] <= 'f') || (src[j] >= 'A' && src[j] <= 'F')) {
				j++
			}
			text := src[i:j]
			if _, err := strconv.ParseUint(text, 0, 64); err != nil {
				return nil, fmt.Errorf("nfc: line %d: bad number %q", line, text)
			}
			toks = append(toks, token{tokNumber, text, line})
			i = j
		default:
			// Two-character operators first.
			if i+1 < len(src) {
				two := src[i : i+2]
				switch two {
				case "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "<<", ">>":
					toks = append(toks, token{tokPunct, two, line})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', '{', '}', ';', '.', '=', '+', '-', '*', '/', '%', '<', '>', '&', '|', '^', '!', ',':
				toks = append(toks, token{tokPunct, string(c), line})
				i++
			default:
				return nil, fmt.Errorf("nfc: line %d: unexpected character %q", line, string(c))
			}
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}
