package spec

import (
	"fmt"
	"slices"
	"strings"
)

// Transition is one Δ edge from a module specification: "from,event->to"
// (Listing 1), with "Start" as the pseudo-source for the initial
// transition.
type Transition struct {
	// From is the source control state ("Start" for the entry edge).
	From string
	// Event is the triggering NFEvent name.
	Event string
	// To is the destination control state ("End" to finish).
	To string
}

// StartState is the pseudo-state naming the module entry.
const StartState = "Start"

// ParseTransition reads the "from,event->to" syntax.
func ParseTransition(s string) (Transition, error) {
	arrow := strings.Index(s, "->")
	if arrow < 0 {
		return Transition{}, fmt.Errorf("spec: transition %q: missing \"->\"", s)
	}
	left, to := strings.TrimSpace(s[:arrow]), strings.TrimSpace(s[arrow+2:])
	comma := strings.LastIndex(left, ",")
	if comma < 0 {
		return Transition{}, fmt.Errorf("spec: transition %q: missing \",\" between state and event", s)
	}
	tr := Transition{
		From:  strings.TrimSpace(left[:comma]),
		Event: strings.TrimSpace(left[comma+1:]),
		To:    to,
	}
	if tr.From == "" || tr.Event == "" || tr.To == "" {
		return Transition{}, fmt.Errorf("spec: transition %q: empty component", s)
	}
	return tr, nil
}

// Module is a parsed module specification (Listing 1/2), reduced to
// what compile.FromSpec reads: its name and category, the Δ edges
// among its control states, and the per-flow fields its states
// declare. Listing 1's parameters and fetch blocks parse as ignored
// keys: FromSpec derives every fetch set from NF-C's access analysis.
type Module struct {
	// Name identifies the module.
	Name string
	// Category is the declared kind (StatefulClassifier, StatefulNF, …).
	Category string
	// Transitions are the Δ edges.
	Transitions []Transition
	// States are the per-flow fields the module's control states
	// declare (Listing 2's "states: flow_mapper: [ip, port]"), in
	// source order, each once.
	States []string
}

// ParseModule reads a module specification document.
func ParseModule(src string) (*Module, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Name:     root.ScalarOr("name", ""),
		Category: root.ScalarOr("category", ""),
	}
	if m.Name == "" {
		return nil, fmt.Errorf("spec: module has no name")
	}
	trs, err := root.StringList("transitions")
	if err != nil {
		return nil, err
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("spec: module %s has no transitions", m.Name)
	}
	for _, s := range trs {
		tr, err := ParseTransition(s)
		if err != nil {
			return nil, fmt.Errorf("spec: module %s: %w", m.Name, err)
		}
		m.Transitions = append(m.Transitions, tr)
	}
	if states, ok := root.Get("states"); ok {
		if states.Kind != KindMap {
			return nil, fmt.Errorf("spec: module %s: states must be a mapping", m.Name)
		}
		for _, cs := range states.Keys {
			names, err := states.StringList(cs)
			if err != nil {
				return nil, fmt.Errorf("spec: module %s states %s: %w", m.Name, cs, err)
			}
			for _, f := range names {
				if !slices.Contains(m.States, f) {
					m.States = append(m.States, f)
				}
			}
		}
	}
	// Exactly one Start edge defines the entry.
	starts := 0
	for _, tr := range m.Transitions {
		if tr.From == StartState {
			starts++
		}
	}
	if starts != 1 {
		return nil, fmt.Errorf("spec: module %s: need exactly one Start transition, have %d", m.Name, starts)
	}
	return m, nil
}

// Entry returns the module's entry control state and its triggering
// event.
func (m *Module) Entry() (state, event string) {
	for _, tr := range m.Transitions {
		if tr.From == StartState {
			return tr.To, tr.Event
		}
	}
	return "", ""
}

// NF is a parsed NF/SFC composition specification.
type NF struct {
	// Name identifies the composed network function.
	Name string
	// Stages are the chained module names in order.
	Stages []string
}

// ParseNF reads an NF/SFC composition document. The chain is given as
// a "chain" list of module names in order (a readable equivalent of
// Listing 3's indexed transitions). An "optimize" key is an error:
// compile.FromSpec applies no optimizations, so a requested one would
// be dropped without a word.
func ParseNF(src string) (*NF, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	n := &NF{Name: root.ScalarOr("name", "")}
	if n.Name == "" {
		return nil, fmt.Errorf("spec: NF has no name")
	}
	if _, ok := root.Get("optimize"); ok {
		return nil, fmt.Errorf("spec: NF %s: optimize is not supported: compile.FromSpec applies no optimizations "+
			"(redundant matching removal and data packing exist for Go NFs as compile.SFCOptions and compile.FuseStates)", n.Name)
	}
	if n.Stages, err = root.StringList("chain"); err != nil {
		return nil, err
	}
	if len(n.Stages) == 0 {
		return nil, fmt.Errorf("spec: NF %s has an empty chain", n.Name)
	}
	return n, nil
}
