package model

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
)

// CSID identifies a control state within a Program. CSEnd (0) is the
// terminal state every stream finishes in.
type CSID int32

// CSEnd is the terminal control state.
const CSEnd CSID = 0

// ActionID indexes a Program's action table.
type ActionID int32

// Binding is the one record of a module's state: which pools its
// per-flow and sub-flow spans index into, the record layouts their
// field references resolve against, and where its control state lives.
// Modules composed into one SFC may share bindings (after
// redundant-matching removal they must, for the reused match result to
// be meaningful).
type Binding struct {
	// PerFlow is the module's per-flow datablock pool, and
	// PerFlowLayout names the fields of one of its entries.
	PerFlow       *mem.Pool
	PerFlowLayout *mem.Layout
	// SubFlow is the module's sub-flow datablock pool and
	// SubFlowLayout its entry layout (both may be nil).
	SubFlow       *mem.Pool
	SubFlowLayout *mem.Layout
	// Control is the module's control-state region.
	Control mem.Region
}

// layout returns the record layout base's field references resolve
// against, or nil: only the per-flow and sub-flow classes have one.
func (b *Binding) layout(base BaseKind) *mem.Layout {
	switch base {
	case BasePerFlow:
		return b.PerFlowLayout
	case BaseSubFlow:
		return b.SubFlowLayout
	default:
		return nil
	}
}

// CSInfo is one compiled control state: the fetching function F
// evaluated at compile time — which action runs here, which spans it
// touches, what to prefetch, and where each event leads.
type CSInfo struct {
	// Name is "module.state" for diagnostics and spec round-trips.
	Name string
	// Action indexes the program's action table.
	Action ActionID
	// Reads and Writes are the compiled access spans, charged on every
	// execution of this CS.
	Reads, Writes []Span
	// Prefetch is what the interleaved scheduler prefetches before
	// executing this CS: the coalesced union of Reads and Writes.
	Prefetch []Span
	// Next maps EventID to the successor CS; entries of -1 are invalid
	// transitions.
	Next []CSID
	// Bind resolves this CS's span bases.
	Bind *Binding
}

// Program is a compiled network function or service function chain:
// the control-state table, the action table, and the interned events.
type Program struct {
	name    string
	cs      []CSInfo
	actions []Action
	events  []string
	start   CSID
	// plans holds each control state lowered into its compiled step plan
	// (see plan.go); indexed by CSID, entry 0 (End) unused. Build
	// compiles them. No code changes a built Program; tests that wrap
	// actions re-run CompilePlans.
	plans []stepPlan
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Start returns the initial control state.
func (p *Program) Start() CSID { return p.start }

// NumCS returns the number of control states (including End).
func (p *Program) NumCS() int { return len(p.cs) }

// NumActions returns the size of the action table.
func (p *Program) NumActions() int { return len(p.actions) }

// CS returns the control state record for id. The returned pointer
// aliases program state; only tests write through it.
func (p *Program) CS(id CSID) (*CSInfo, error) {
	if id < 0 || int(id) >= len(p.cs) {
		return nil, fmt.Errorf("model: CS %d out of range [0,%d)", id, len(p.cs))
	}
	return &p.cs[id], nil
}

// Action returns the action table entry for id.
func (p *Program) Action(id ActionID) (*Action, error) {
	if id < 0 || int(id) >= len(p.actions) {
		return nil, fmt.Errorf("model: action %d out of range [0,%d)", id, len(p.actions))
	}
	return &p.actions[id], nil
}

// EventName returns the name of an interned event.
func (p *Program) EventName(id EventID) string {
	if id < 0 || int(id) >= len(p.events) {
		return fmt.Sprintf("event(%d)", id)
	}
	return p.events[id]
}

// Step executes the current control state of e: charge the declared
// reads, run the action, charge the declared writes, and take the
// transition for the returned event. It implements the ActionExecutor +
// Transition steps of the paper's Algorithm 1 and is shared by both
// execution models: rt.Worker interleaving NFTasks, and rt.Worker under
// RTCConfig, one task run to completion.
//
// There is one executor, the compiled step plan (plan.go): with a
// tracer attached the same code additionally emits the action, access
// and transition events, so what is observed is what runs.
func (p *Program) Step(e *Exec) error {
	if e.CS == CSEnd {
		e.Done = true
		return nil
	}
	return p.stepCompiled(e, &p.plans[e.CS])
}

// PrefetchCurrent issues prefetches for the current CS's prefetch plan —
// the Prefetch step of Algorithm 1 — and marks the P-state. Prefetch
// trace events are emitted per line inside the core.
func (p *Program) PrefetchCurrent(e *Exec) {
	if e.CS == CSEnd {
		e.Prefetched = true
		return
	}
	if e.Core.Tracer() != nil {
		// Stamp prefetch events with the CS they are fetching for.
		e.Core.SetCS(int32(e.CS))
	}
	p.prefetchCompiled(e, &p.plans[e.CS])
	e.Prefetched = true
}

// Validate checks structural soundness: every transition targets an
// existing CS, every CS has a valid action, the start state exists, and
// End is reachable from the start.
func (p *Program) Validate() error {
	if p.start <= CSEnd || int(p.start) >= len(p.cs) {
		return fmt.Errorf("model: program %s: invalid start state %d", p.name, p.start)
	}
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		if info.Action < 0 || int(info.Action) >= len(p.actions) {
			return fmt.Errorf("model: %s: action id %d out of range", info.Name, info.Action)
		}
		if len(info.Next) != len(p.events) {
			return fmt.Errorf("model: %s: transition table has %d entries, want %d",
				info.Name, len(info.Next), len(p.events))
		}
		hasExit := false
		for ev, next := range info.Next {
			if next < -1 || int(next) >= len(p.cs) {
				return fmt.Errorf("model: %s: transition on %q targets invalid CS %d",
					info.Name, p.EventName(EventID(ev)), next)
			}
			if next >= 0 {
				hasExit = true
			}
		}
		if !hasExit {
			return fmt.Errorf("model: %s: no outgoing transitions", info.Name)
		}
		if info.Bind == nil {
			return fmt.Errorf("model: %s: no binding", info.Name)
		}
	}
	// Reachability of End from start.
	seen := make([]bool, len(p.cs))
	stack := []CSID{p.start}
	seen[p.start] = true
	reachedEnd := false
	for len(stack) > 0 {
		cs := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cs == CSEnd {
			reachedEnd = true
			continue
		}
		for _, next := range p.cs[cs].Next {
			if next >= 0 && !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	if !reachedEnd {
		return fmt.Errorf("model: program %s: End unreachable from start", p.name)
	}
	return nil
}
