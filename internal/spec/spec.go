package spec

import (
	"fmt"
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

// Module is a parsed module specification (Listing 1/2): the control
// states with their fetch sets and the transitions among them.
type Module struct {
	// Name identifies the module.
	Name string
	// Category is the declared kind (StatefulClassifier, StatefulNF, …).
	Category string
	// Parameters are the init/configuration parameters.
	Parameters []string
	// Transitions are the Δ edges.
	Transitions []Transition
	// Fetch maps each control state to the state names its action
	// accesses (the F function of the model) — the per-state fetch
	// blocks of Listing 1.
	Fetch map[string][]string
	// FetchOrder preserves the source order of Fetch keys.
	FetchOrder []string
	// States maps control states to the user-defined per-flow field
	// list (Listing 2's "states: flow_mapper: [ip, port]").
	States map[string][]string
	// StatesOrder preserves the source order of States keys.
	StatesOrder []string
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
		Fetch:    make(map[string][]string),
		States:   make(map[string][]string),
	}
	if m.Name == "" {
		return nil, fmt.Errorf("spec: module has no name")
	}
	if m.Parameters, err = root.StringList("parameters"); err != nil {
		return nil, err
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
	if fetch, ok := root.Get("fetch"); ok {
		if fetch.Kind != KindMap {
			return nil, fmt.Errorf("spec: module %s: fetch must be a mapping", m.Name)
		}
		for _, cs := range fetch.Keys {
			names, err := fetch.StringList(cs)
			if err != nil {
				return nil, fmt.Errorf("spec: module %s fetch %s: %w", m.Name, cs, err)
			}
			m.Fetch[cs] = names
			m.FetchOrder = append(m.FetchOrder, cs)
		}
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
			m.States[cs] = names
			m.StatesOrder = append(m.StatesOrder, cs)
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

// ChainStage is one stage of an NF/SFC composition spec (Listing 3):
// "0:receive_packet,packet->1:flow_classifier" chains stage 0 to the
// named module at stage 1 on the given event.
type ChainStage struct {
	// Index is the stage number.
	Index int
	// Module is the module instantiated at this stage.
	Module string
}

// NF is a parsed NF/SFC composition specification.
type NF struct {
	// Name identifies the composed network function.
	Name string
	// Stages are the chained modules in order.
	Stages []ChainStage
	// Optimize lists requested compilation optimizations
	// ("redundant_matching_removal", "data_packing").
	Optimize []string
}

// ParseNF reads an NF/SFC composition document. The chain is given as
// a "chain" list of module names in order (a readable equivalent of
// Listing 3's indexed transitions).
func ParseNF(src string) (*NF, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	n := &NF{Name: root.ScalarOr("name", "")}
	if n.Name == "" {
		return nil, fmt.Errorf("spec: NF has no name")
	}
	chain, err := root.StringList("chain")
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("spec: NF %s has an empty chain", n.Name)
	}
	for i, mod := range chain {
		n.Stages = append(n.Stages, ChainStage{Index: i, Module: mod})
	}
	if n.Optimize, err = root.StringList("optimize"); err != nil {
		return nil, err
	}
	for _, o := range n.Optimize {
		switch o {
		case "redundant_matching_removal", "data_packing":
		case "redundant_prefetch_removal":
			return nil, fmt.Errorf("spec: NF %s: optimization %q was retired: under interleaving it removed prefetches of lines other tasks had evicted", n.Name, o)
		default:
			return nil, fmt.Errorf("spec: NF %s: unknown optimization %q", n.Name, o)
		}
	}
	return n, nil
}
