// Package spec implements GuNFu's specification language (§IV-B of the
// paper): YAML module specifications (Listings 1 and 2), NF/SFC
// composition specifications (Listing 3), and the parser that reads
// them.
//
// It keeps only what compile.FromSpec compiles. From a module: name,
// category, transitions and the per-flow fields under states (of a
// StatefulClassifier FromSpec reads only name and category: its states
// are nf.Classifier's). Other keys, such as Listing 1's parameters and
// per-state fetch sets, parse and are ignored, because FromSpec
// derives every fetch set from NF-C's access analysis. From a
// composition: name and chain; an optimize key is rejected, because
// FromSpec applies no optimizations.
//
// The parser handles the YAML subset the specs use — nested maps,
// block lists, string scalars, comments — with no external
// dependencies. It is not a general YAML implementation.
package spec

import (
	"fmt"
	"strings"
)

// Node is one parsed YAML value: exactly one of Scalar, Map, or List is
// meaningful (Kind discriminates).
type Node struct {
	// Kind discriminates the union.
	Kind NodeKind
	// Scalar holds the value for KindScalar.
	Scalar string
	// Map holds the entries for KindMap, with Keys preserving source
	// order.
	Map  map[string]*Node
	Keys []string
	// List holds the items for KindList.
	List []*Node
	// Line is the 1-based source line, for error messages.
	Line int
}

// NodeKind discriminates Node's union.
type NodeKind int

// The node kinds.
const (
	// KindScalar is a bare string value.
	KindScalar NodeKind = iota + 1
	// KindMap is a block mapping.
	KindMap
	// KindList is a block sequence.
	KindList
)

// Get returns the child node for key in a map node.
func (n *Node) Get(key string) (*Node, bool) {
	if n == nil || n.Kind != KindMap {
		return nil, false
	}
	c, ok := n.Map[key]
	return c, ok
}

// ScalarOr returns the scalar for key, or def when absent.
func (n *Node) ScalarOr(key, def string) string {
	c, ok := n.Get(key)
	if !ok || c.Kind != KindScalar {
		return def
	}
	return c.Scalar
}

// StringList returns the child list's scalar items for key.
func (n *Node) StringList(key string) ([]string, error) {
	c, ok := n.Get(key)
	if !ok {
		return nil, nil
	}
	if c.Kind == KindScalar && c.Scalar == "" {
		return nil, nil
	}
	if c.Kind != KindList {
		return nil, fmt.Errorf("spec: line %d: %q must be a list", c.Line, key)
	}
	out := make([]string, 0, len(c.List))
	for _, item := range c.List {
		if item.Kind != KindScalar {
			return nil, fmt.Errorf("spec: line %d: %q items must be scalars", item.Line, key)
		}
		out = append(out, item.Scalar)
	}
	return out, nil
}

type line struct {
	indent  int
	content string
	num     int
}

// Parse reads a YAML-subset document into a node tree. The root must
// be a mapping.
func Parse(src string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(src, "\n") {
		content := raw
		// Strip comments (no quoted-string support needed by the specs).
		if idx := strings.Index(content, "#"); idx >= 0 {
			content = content[:idx]
		}
		trimmed := strings.TrimRight(content, " \t\r")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if indent < len(trimmed) && trimmed[indent] == '\t' {
			return nil, fmt.Errorf("spec: line %d: tabs are not allowed for indentation", i+1)
		}
		lines = append(lines, line{indent: indent, content: strings.TrimSpace(trimmed), num: i + 1})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("spec: empty document")
	}
	p := &parser{lines: lines}
	root, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("spec: line %d: unexpected content %q", p.lines[p.pos].num, p.lines[p.pos].content)
	}
	if root.Kind != KindMap {
		return nil, fmt.Errorf("spec: document root must be a mapping")
	}
	return root, nil
}

type parser struct {
	lines []line
	pos   int
}

// parseBlock parses the map or list starting at the current position
// whose items are indented at least minIndent.
func (p *parser) parseBlock(minIndent int) (*Node, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("spec: unexpected end of document")
	}
	first := p.lines[p.pos]
	if first.indent < minIndent {
		return nil, fmt.Errorf("spec: line %d: bad indentation", first.num)
	}
	blockIndent := first.indent
	if strings.HasPrefix(first.content, "- ") || first.content == "-" {
		return p.parseList(blockIndent)
	}
	return p.parseMap(blockIndent)
}

func (p *parser) parseMap(indent int) (*Node, error) {
	node := &Node{Kind: KindMap, Map: make(map[string]*Node), Line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("spec: line %d: unexpected indentation", l.num)
		}
		if strings.HasPrefix(l.content, "- ") || l.content == "-" {
			return nil, fmt.Errorf("spec: line %d: list item inside mapping", l.num)
		}
		colon := strings.Index(l.content, ":")
		if colon < 0 {
			return nil, fmt.Errorf("spec: line %d: expected \"key: value\"", l.num)
		}
		key := strings.TrimSpace(l.content[:colon])
		val := strings.TrimSpace(l.content[colon+1:])
		if key == "" {
			return nil, fmt.Errorf("spec: line %d: empty key", l.num)
		}
		if _, dup := node.Map[key]; dup {
			return nil, fmt.Errorf("spec: line %d: duplicate key %q", l.num, key)
		}
		p.pos++
		var child *Node
		if val != "" {
			child = &Node{Kind: KindScalar, Scalar: val, Line: l.num}
		} else if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			var err error
			child, err = p.parseBlock(indent + 1)
			if err != nil {
				return nil, err
			}
		} else {
			child = &Node{Kind: KindScalar, Scalar: "", Line: l.num}
		}
		node.Map[key] = child
		node.Keys = append(node.Keys, key)
	}
	return node, nil
}

func (p *parser) parseList(indent int) (*Node, error) {
	node := &Node{Kind: KindList, Line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || (!strings.HasPrefix(l.content, "- ") && l.content != "-") {
			if l.indent >= indent && (strings.HasPrefix(l.content, "- ") || l.content == "-") {
				return nil, fmt.Errorf("spec: line %d: inconsistent list indentation", l.num)
			}
			break
		}
		item := strings.TrimSpace(strings.TrimPrefix(l.content, "-"))
		p.pos++
		if item == "" {
			// Nested structure under a bare dash.
			child, err := p.parseBlock(indent + 1)
			if err != nil {
				return nil, err
			}
			node.List = append(node.List, child)
			continue
		}
		node.List = append(node.List, &Node{Kind: KindScalar, Scalar: item, Line: l.num})
	}
	return node, nil
}
