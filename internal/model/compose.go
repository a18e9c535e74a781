package model

import "fmt"

// This file implements the paper's formal composition of network
// functions (§IV-A): two NFs with compatible transition functions
// compose into NF_composite whose control-state set is the product
// CS₁ × CS₂. GuNFu's chains use the sequential special case (the
// second factor only starts after the first finishes — built by
// wiring exit transitions in the Builder); Compose implements the
// general product for NFs that genuinely interleave, e.g. a monitor
// that observes every event of a primary NF.

// ComposeMode selects how the product machine advances its factors.
type ComposeMode int

// The composition modes.
const (
	// ComposeSequential runs the first program to End, then the second
	// — the service-function-chain form, Δ_composite advancing one
	// factor at a time.
	ComposeSequential ComposeMode = iota + 1
	// ComposeLockstep advances both factors on every event both can
	// take; events only one factor handles advance that factor alone.
	// The composite finishes when both reach End. The fetching
	// function of a product state is the union of the factors'.
	ComposeLockstep
)

// Compose builds NF_composite from two compiled programs. Programs
// must have been built from Builders so their actions carry Fns.
//
// The product construction materializes only the reachable subset of
// CS₁ × CS₂ (the full product is exponential and mostly dead). For
// ComposeLockstep, a product state (a, b) executes a's action then b's
// action when both are live — the composite fetching function
// F(a,b) = (A_a ∪ A_b, S_a ∪ S_b) realized as action sequencing, which
// preserves each factor's semantics because factors share no state.
func Compose(name string, p1, p2 *Program, mode ComposeMode) (*Program, error) {
	switch mode {
	case ComposeSequential:
		return composeSequential(name, p1, p2)
	case ComposeLockstep:
		return composeLockstep(name, p1, p2)
	default:
		return nil, fmt.Errorf("model: unknown compose mode %d", mode)
	}
}

// composeSequential rebuilds p1 with its End transitions redirected to
// p2's start. Control states keep their names prefixed by program.
func composeSequential(name string, p1, p2 *Program) (*Program, error) {
	out := &Program{
		name:      name,
		tempLines: maxInt(p1.tempLines, p2.tempLines),
	}
	out.cs = append(out.cs, CSInfo{Name: EndName})

	// Merge event vocabularies.
	evMap1, evMap2 := make([]EventID, len(p1.events)), make([]EventID, len(p2.events))
	out.events = []string{"", "packet", "done"}
	intern := func(name string) EventID {
		for i, n := range out.events {
			if n == name {
				return EventID(i)
			}
		}
		out.events = append(out.events, name)
		return EventID(len(out.events) - 1)
	}
	for i, n := range p1.events {
		if i == 0 {
			continue
		}
		evMap1[i] = intern(n)
	}
	for i, n := range p2.events {
		if i == 0 {
			continue
		}
		evMap2[i] = intern(n)
	}

	// Copy actions (re-mapping Fn event returns is unnecessary: Fns
	// return their own program's EventIDs, so transition tables must be
	// indexed by the factor's ids — we keep per-CS remap tables).
	base2cs := CSID(len(p1.cs)) // p2's states follow p1's (minus both Ends)

	copyStates := func(p *Program, prefix string, evMap []EventID, endTarget CSID, csOffset CSID) error {
		for i := 1; i < len(p.cs); i++ {
			src := p.cs[i]
			info := CSInfo{
				Name:     prefix + src.Name,
				Module:   src.Module,
				Action:   ActionID(len(out.actions)),
				Reads:    src.Reads,
				Writes:   src.Writes,
				Prefetch: src.Prefetch,
				Bind:     src.Bind,
			}
			act := p.actions[src.Action]
			// Wrap the Fn so its returned (factor-local) event ids are
			// translated into the composite vocabulary. Touch returns
			// nothing to translate and rides along in the copy.
			innerFn := act.Fn
			localMap := evMap
			act.Fn = func(e *Exec) EventID {
				ev := innerFn(e)
				if int(ev) < len(localMap) {
					return localMap[ev]
				}
				return ev
			}
			out.actions = append(out.actions, act)

			info.Next = make([]CSID, 0, len(out.events))
			// Remap transitions into composite ids.
			next := make([]CSID, len(out.events))
			for j := range next {
				next[j] = -1
			}
			for ev, tgt := range src.Next {
				if tgt < 0 {
					continue
				}
				cev := evMap[ev]
				switch {
				case tgt == CSEnd:
					next[cev] = endTarget
				default:
					next[cev] = tgt + csOffset
				}
			}
			info.Next = next
			out.cs = append(out.cs, info)
		}
		return nil
	}

	// p1's states occupy [1, len(p1.cs)-1]; its End becomes p2's start.
	p2Start := base2cs + p2.start - 1
	if err := copyStates(p1, p1.name+"/", evMap1, p2Start, 0); err != nil {
		return nil, err
	}
	if err := copyStates(p2, p2.name+"/", evMap2, CSEnd, base2cs-1); err != nil {
		return nil, err
	}

	out.start = p1.start
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("model: compose %s: %w", name, err)
	}
	out.CompilePlans()
	return out, nil
}

// lockKey identifies a product state.
type lockKey struct{ a, b CSID }

// composeLockstep materializes the reachable product CS₁ × CS₂.
func composeLockstep(name string, p1, p2 *Program) (*Program, error) {
	if len(p1.events) != len(p2.events) {
		// Lockstep requires a shared event vocabulary — the
		// "compatible transition functions" premise of §IV-A.
		return nil, fmt.Errorf("model: lockstep compose: incompatible event vocabularies (%d vs %d)",
			len(p1.events), len(p2.events))
	}
	for i := range p1.events {
		if p1.events[i] != p2.events[i] {
			return nil, fmt.Errorf("model: lockstep compose: event %d differs: %q vs %q",
				i, p1.events[i], p2.events[i])
		}
	}

	out := &Program{
		name:      name,
		events:    append([]string(nil), p1.events...),
		tempLines: maxInt(p1.tempLines, p2.tempLines),
	}
	out.cs = append(out.cs, CSInfo{Name: EndName})

	ids := map[lockKey]CSID{{CSEnd, CSEnd}: CSEnd}
	var build func(k lockKey) (CSID, error)
	build = func(k lockKey) (CSID, error) {
		if id, ok := ids[k]; ok {
			return id, nil
		}
		id := CSID(len(out.cs))
		ids[k] = id
		out.cs = append(out.cs, CSInfo{}) // reserve; filled below

		// The live factor(s) at this product state.
		var a, b *CSInfo
		if k.a != CSEnd {
			a = &p1.cs[k.a]
		}
		if k.b != CSEnd {
			b = &p2.cs[k.b]
		}

		info := CSInfo{Name: productName(p1, p2, k), Next: make([]CSID, len(out.events))}
		for i := range info.Next {
			info.Next[i] = -1
		}

		// Fetching function: union of spans; action: sequence of Fns.
		// The composite's transition for event e advances every live
		// factor that has Δ(cs, e) defined; an event neither factor
		// handles is invalid (as in any single program).
		// acts are the live factors' actions in run order.
		var acts []Action
		switch {
		case a != nil && b != nil:
			info.Module = a.Module + "+" + b.Module
			info.Reads = append(append([]Span{}, a.Reads...), b.Reads...)
			info.Writes = append(append([]Span{}, a.Writes...), b.Writes...)
			info.Prefetch = append(append([]Span{}, a.Prefetch...), b.Prefetch...)
			info.Bind = a.Bind
			// The primary's event drives the composite; the secondary
			// runs for its effects (the observer pattern — e.g. NM
			// mirroring a data path).
			acts = []Action{p2.actions[b.Action], p1.actions[a.Action]}
		case a != nil:
			info.Module = a.Module
			info.Reads, info.Writes, info.Prefetch, info.Bind = a.Reads, a.Writes, a.Prefetch, a.Bind
			acts = []Action{p1.actions[a.Action]}
		case b != nil:
			info.Module = b.Module
			info.Reads, info.Writes, info.Prefetch, info.Bind = b.Reads, b.Writes, b.Prefetch, b.Bind
			acts = []Action{p2.actions[b.Action]}
		}

		var fns []ActionFunc
		var touches []func(*Exec)
		var costs uint64
		for _, act := range acts {
			fns = append(fns, act.Fn)
			costs += act.Cost
			if act.Touch != nil {
				touches = append(touches, act.Touch)
			}
		}
		last := len(fns) - 1
		composite := Action{
			Name: info.Name,
			Kind: ActionData,
			Cost: costs,
			Fn: func(e *Exec) EventID {
				var ev EventID
				for i, fn := range fns {
					got := fn(e)
					if i == last {
						ev = got
					}
				}
				return ev
			},
		}
		// The host-side fetch sequences the way Fn does; a state whose
		// factors have none keeps a nil Touch so the P-stage pays nothing.
		if len(touches) > 0 {
			composite.Touch = func(e *Exec) {
				for _, touch := range touches {
					touch(e)
				}
			}
		}
		out.actions = append(out.actions, composite)
		info.Action = ActionID(len(out.actions) - 1)

		// Successors per event.
		for ev := 1; ev < len(out.events); ev++ {
			nk := k
			moved := false
			if a != nil && a.Next[ev] >= 0 {
				nk.a = a.Next[ev]
				moved = true
			}
			if b != nil && b.Next[ev] >= 0 {
				nk.b = b.Next[ev]
				moved = true
			}
			if !moved {
				continue
			}
			tgt, err := build(nk)
			if err != nil {
				return 0, err
			}
			info.Next[EventID(ev)] = tgt
		}
		out.cs[id] = info
		return id, nil
	}

	start, err := build(lockKey{p1.start, p2.start})
	if err != nil {
		return nil, err
	}
	out.start = start
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("model: compose %s: %w", name, err)
	}
	out.CompilePlans()
	return out, nil
}

func productName(p1, p2 *Program, k lockKey) string {
	n1, n2 := EndName, EndName
	if k.a != CSEnd {
		n1 = p1.cs[k.a].Name
	}
	if k.b != CSEnd {
		n2 = p2.cs[k.b].Name
	}
	return "(" + n1 + "," + n2 + ")"
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
