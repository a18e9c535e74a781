package model

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// This file is the step-plan compiler: it lowers each CSInfo, once at
// program-build time, into a flat stepPlan the hot path executes without
// re-interpreting span tables. Three things are compiled away:
//
//   - Per-span base resolution. Interpreting a span runs a switch on its
//     BaseKind and (for pool bases) a bounds-checked pool lookup on
//     every access of every visit. The plan pre-splits spans by base:
//     each access becomes a (base-table index, pre-added offset) pair,
//     the per-phase base table is materialized once per phase (reads
//     resolve before the action, writes after — an action may rebind
//     FlowIdx or the cursor), and statically-resolvable bases (control
//     regions) are folded into the offset entirely.
//
//   - Prefetch line decomposition. Core.Prefetch(addr, size) re-derives
//     the covered lines on every issue. For spans whose base is provably
//     line-aligned at compile time (pools pad entries to the line grid;
//     control regions are line-aligned by reservation), the plan stores
//     the finished line list and issues Core.PrefetchLine per entry.
//
//   - Residency checks. The P-state check's span loop becomes the same
//     pre-resolved line list probed against the core's L1 tags.
//
// The lowering is a pure representation change: the simulated access
// sequence — every (addr, size, read/write/prefetch, cycle) the core is
// charged with — is byte-for-byte the sequence the span-interpreting
// reference (reference_test.go) issues, and so is the trace-event stream
// when a tracer is attached. No access is deduplicated, reordered, split
// or merged. The differential-replay harness (differential_test.go)
// asserts both against randomized programs; the golden-counter tests in
// internal/exp pin the shipped NFs, traced and untraced.

// Base-table indexes of a compiled access. pbStatic entries carry their
// full address in the offset (the table slot stays zero); the rest are
// filled per phase from the execution context.
const (
	pbStatic = iota
	pbPerFlow
	pbSubFlow
	pbPacket
	pbDynamic
	pbCount
)

// stepPlan is one control state lowered for execution. Ops use the
// core's compiled-access types (sim.PlanOp, sim.FetchOp) so whole op
// lists execute core-side in one call per phase. The action's function
// and cost are copied in so a step never touches the action table, and
// all plans' op slices share two contiguous backing arrays (see
// CompilePlans) so walking a plan streams through memory.
type stepPlan struct {
	reads  []sim.PlanOp
	writes []sim.PlanOp
	fetch  []sim.FetchOp
	// readMask/writeMask/fetchMask say which base-table entries the
	// phase needs materialized (bit i = base index i).
	readMask  uint8
	writeMask uint8
	fetchMask uint8
	action    ActionID
	cost      uint64
	fn        ActionFunc
	// touch is the action's host-side prefetch (Action.Touch), nil for
	// most control states.
	touch func(*Exec)
	// next aliases the CSInfo transition table.
	next []CSID
	bind *Binding
}

// CompilePlans lowers every control state into its step plan. Build
// calls it; no other code changes a built Program. A test that wraps
// an action after Build calls it again, or the Program keeps executing
// the stale plans.
func (p *Program) CompilePlans() {
	plans := make([]stepPlan, len(p.cs))
	// All plans' ops live in two shared backing arrays, appended in CS
	// order, so consecutive steps walk contiguous memory instead of
	// per-CS allocations. Capacities are counted up front so the arrays
	// never reallocate under the subslices handed to the plans.
	nOps, nFetch := 0, 0
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		nOps += len(info.Reads) + len(info.Writes)
		nFetch += fetchLen(info.Prefetch, info.Bind)
	}
	allOps := make([]sim.PlanOp, 0, nOps)
	allFetch := make([]sim.FetchOp, 0, nFetch)
	for i := 1; i < len(p.cs); i++ {
		info := &p.cs[i]
		pl := &plans[i]
		pl.action = info.Action
		pl.cost = p.actions[info.Action].Cost
		pl.fn = p.actions[info.Action].Fn
		pl.touch = p.actions[info.Action].Touch
		pl.next = info.Next
		pl.bind = info.Bind
		allOps, pl.reads, pl.readMask = lowerOps(allOps, info.Reads, info.Bind)
		allOps, pl.writes, pl.writeMask = lowerOps(allOps, info.Writes, info.Bind)
		allFetch, pl.fetch, pl.fetchMask = lowerFetch(allFetch, info.Prefetch, info.Bind)
	}
	p.plans = plans
}

// lowerBase maps a span onto its base-table index and pre-added offset.
func lowerBase(s Span, bind *Binding) (base uint8, off uint64) {
	switch s.Base {
	case BasePerFlow:
		return pbPerFlow, s.Off
	case BaseSubFlow:
		return pbSubFlow, s.Off
	case BasePacket:
		return pbPacket, s.Off
	case BaseControl:
		// Statically resolvable: fold the region base into the offset.
		return pbStatic, bind.Control.Base + s.Off
	case BaseDynamic:
		return pbDynamic, s.Off
	default:
		// Defer the failure to execution time, where Resolve produces
		// the historical diagnostic.
		return pbStatic, 0
	}
}

// maskBit returns the base-table fill bit for an access. pbStatic needs
// no fill (bases[pbStatic] is always zero).
func maskBit(base uint8) uint8 {
	if base == pbStatic {
		return 0
	}
	return 1 << base
}

// lowerOps compiles a read or write span list, appending onto the
// shared backing array and returning it plus the capped subslice
// holding this list's ops.
func lowerOps(dst []sim.PlanOp, spans []Span, bind *Binding) ([]sim.PlanOp, []sim.PlanOp, uint8) {
	if len(spans) == 0 {
		return dst, nil, 0
	}
	start := len(dst)
	var mask uint8
	for _, s := range spans {
		base, off := lowerBase(s, bind)
		dst = append(dst, sim.PlanOp{Off: off, Size: s.Size, Base: base, Kind: uint8(s.Base)})
		mask |= maskBit(base)
	}
	return dst, dst[start:len(dst):len(dst)], mask
}

// alignedBase reports whether every address the base can resolve to is
// provably line-aligned at compile time, which is what licenses
// decomposing a span into pre-resolved lines: for aligned bases,
// (base+off)/Line == base/Line + off/Line, so the compile-time line
// walk enumerates exactly the lines Core.Prefetch would.
func alignedBase(base uint8, bind *Binding) bool {
	switch base {
	case pbStatic:
		return true // offsets are absolute; lines computed directly
	case pbPerFlow:
		return poolAligned(bind.PerFlow)
	case pbSubFlow:
		return poolAligned(bind.SubFlow)
	default:
		// Packet and dynamic bases are runtime values with no
		// compile-time alignment guarantee.
		return false
	}
}

func poolAligned(p *mem.Pool) bool {
	return p != nil && p.Region().Base%sim.LineBytes == 0 && p.EntrySize()%sim.LineBytes == 0
}

// lowerFetch compiles a prefetch plan: aligned spans expand into their
// line lists (ascending, matching Core.Prefetch's walk), the rest stay
// span ops. Order across spans is preserved exactly. Ops append onto
// the shared backing array; the capped subslice holds this plan's ops.
func lowerFetch(dst []sim.FetchOp, spans []Span, bind *Binding) ([]sim.FetchOp, []sim.FetchOp, uint8) {
	if len(spans) == 0 {
		return dst, nil, 0
	}
	start := len(dst)
	var mask uint8
	for _, s := range spans {
		base, off := lowerBase(s, bind)
		mask |= maskBit(base)
		if s.Size == 0 || !alignedBase(base, bind) {
			dst = append(dst, sim.FetchOp{Off: off, Size: s.Size, Base: base})
			continue
		}
		first := off >> lineShift
		last := (off + s.Size - 1) >> lineShift
		for line := first; line <= last; line++ {
			dst = append(dst, sim.FetchOp{Off: line << lineShift, Base: base, Line: true})
		}
	}
	return dst, dst[start:len(dst):len(dst)], mask
}

// fetchLen counts the ops lowerFetch will emit for spans, for the
// backing-array capacity precompute.
func fetchLen(spans []Span, bind *Binding) int {
	n := 0
	for _, s := range spans {
		base, off := lowerBase(s, bind)
		if s.Size == 0 || !alignedBase(base, bind) {
			n++
			continue
		}
		n += int(((off+s.Size-1)>>lineShift)-(off>>lineShift)) + 1
	}
	return n
}

// lineShift is log2(sim.LineBytes).
const lineShift = 6

// planBases materializes the base table for one phase into the Exec's
// persistent scratch. Only the bases the phase's mask names are
// resolved, so a control state that never touches per-flow state never
// evaluates the (possibly still unmatched) flow index — the same
// laziness the per-span Resolve switch had. Entries outside the mask
// keep whatever a previous phase left (no zeroing): no op reads them,
// and the always-zero pbStatic entry is never written.
func planBases(e *Exec, bind *Binding, mask uint8) *[8]uint64 {
	bases := &e.bases
	if mask&(1<<pbPerFlow) != 0 {
		bases[pbPerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
	}
	if mask&(1<<pbSubFlow) != 0 {
		bases[pbSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
	}
	if mask&(1<<pbPacket) != 0 {
		bases[pbPacket] = e.Pkt.Addr
	}
	if mask&(1<<pbDynamic) != 0 {
		bases[pbDynamic] = e.Cur.Addr
	}
	return bases
}

// stepCompiled executes one control state through its plan: charge the
// reads, run the action, charge the writes, take the transition — with
// address resolution reduced to one add per access and each phase's op
// list executed core-side in a single call. The base-table fills are
// spelled out inline (see planBases, kept in sync) because the
// materialization sits on the hottest loop in the repository and must
// not pay a call per phase.
//
// With a tracer attached the same body stamps the core with the control
// state and, for the kinds the tracer consumes, brackets the action with
// TraceActionBegin / TraceActionEnd + TraceTransition (outlined in
// traceBegin/traceEnd so the untraced path pays two predictable
// branches and keeps its shape); the per-op TraceAccess events come from
// the core's span loops.
func (p *Program) stepCompiled(e *Exec, pl *stepPlan) error {
	core := e.Core
	if core.Tracer() != nil {
		core.SetCS(int32(e.CS))
		if core.Kinds().Has(sim.TraceActionBegin) {
			traceBegin(core, pl)
		}
	}
	before := core.Now()
	if ops := pl.reads; len(ops) > 0 {
		bases := &e.bases
		m := pl.readMask
		bind := pl.bind
		if m&(1<<pbPerFlow) != 0 {
			bases[pbPerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
		}
		if m&(1<<pbSubFlow) != 0 {
			bases[pbSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
		}
		if m&(1<<pbPacket) != 0 {
			bases[pbPacket] = e.Pkt.Addr
		}
		if m&(1<<pbDynamic) != 0 {
			bases[pbDynamic] = e.Cur.Addr
		}
		core.ReadSpans(bases, ops)
	}
	afterReads := core.Now()

	core.Compute(pl.cost)
	ev := pl.fn(e)

	preWrites := core.Now()
	if ops := pl.writes; len(ops) > 0 {
		bases := &e.bases
		m := pl.writeMask
		bind := pl.bind
		if m&(1<<pbPerFlow) != 0 {
			bases[pbPerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
		}
		if m&(1<<pbSubFlow) != 0 {
			bases[pbSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
		}
		if m&(1<<pbPacket) != 0 {
			bases[pbPacket] = e.Pkt.Addr
		}
		if m&(1<<pbDynamic) != 0 {
			bases[pbDynamic] = e.Cur.Addr
		}
		core.WriteSpans(bases, ops)
	}
	e.AccessCycles += (afterReads - before) + (core.Now() - preWrites)

	if ev <= EvInvalid || int(ev) >= len(pl.next) {
		return p.stepEventErr(e, ev)
	}
	next := pl.next[ev]
	if next < 0 {
		return p.stepTransitionErr(e, ev)
	}
	if core.Kinds()&traceEndKinds != 0 {
		traceEnd(core, pl, before, ev, next)
	}
	e.CS = next
	e.Prefetched = false
	if next == CSEnd {
		e.Done = true
	}
	return nil
}

// traceBegin emits the TraceActionBegin of the control state about to
// execute.
//
//go:noinline
func traceBegin(core *sim.Core, pl *stepPlan) {
	core.Emit(sim.TraceActionBegin, sim.CauseNone, uint64(pl.action), 0, 0)
}

// traceEndKinds are the kinds traceEnd emits.
const traceEndKinds sim.TraceKinds = 1<<sim.TraceActionEnd | 1<<sim.TraceTransition

// traceEnd emits the TraceActionEnd (B = cycles since begin, the clock
// at step entry) and the TraceTransition taken, each when consumed.
//
//go:noinline
func traceEnd(core *sim.Core, pl *stepPlan, begin uint64, ev EventID, next CSID) {
	core.Emit(sim.TraceActionEnd, sim.CauseNone, uint64(pl.action), core.Now()-begin, 0)
	core.Emit(sim.TraceTransition, sim.CauseNone, uint64(ev), uint64(next), 0)
}

// prefetchCompiled issues the pre-resolved prefetch plan blind: every
// line takes the full probing path, exactly like PrefetchLine. A visit
// that issues also runs the action's host-side Touch.
func (p *Program) prefetchCompiled(e *Exec, pl *stepPlan) {
	if len(pl.fetch) == 0 {
		return
	}
	e.Core.IssueFetch(planBases(e, pl.bind, pl.fetchMask), pl.fetch)
	if pl.touch != nil {
		pl.touch(e)
	}
}

// EnsurePrefetched fuses the scheduler's P-state maintenance visit: it
// verifies the current control state's plan lines are L1-resident and,
// when they are not, issues the full prefetch plan (all lines, resident
// or not — exactly what PrefetchCurrent does). It returns true when the
// task can execute immediately and false when the scheduler should
// switch away while the fills land. Either way the P-state is set.
// The issuing visit — and only it, never the resident fall-through —
// also runs the action's host-side Touch (see Action.Touch).
//
// The fusion resolves the plan's base table once for both the check and
// the issue, and the core's EnsureFetched hands the check's L1 probe of
// the first absent line to its fill; the simulated sequence is identical
// to a residency check of every plan line followed (on failure) by
// PrefetchCurrent, because residency probes charge nothing.
func (p *Program) EnsurePrefetched(e *Exec) bool {
	if e.CS == CSEnd {
		e.Prefetched = true
		return true
	}
	pl := &p.plans[e.CS]
	e.Prefetched = true
	if len(pl.fetch) == 0 {
		return true
	}
	core := e.Core
	// Inline base fill — see stepCompiled for why.
	bases := &e.bases
	m := pl.fetchMask
	bind := pl.bind
	if m&(1<<pbPerFlow) != 0 {
		bases[pbPerFlow] = bind.PerFlow.AddrAt(e.FlowIdx)
	}
	if m&(1<<pbSubFlow) != 0 {
		bases[pbSubFlow] = bind.SubFlow.AddrAt(e.SubIdx)
	}
	if m&(1<<pbPacket) != 0 {
		bases[pbPacket] = e.Pkt.Addr
	}
	if m&(1<<pbDynamic) != 0 {
		bases[pbDynamic] = e.Cur.Addr
	}
	if core.Tracer() != nil {
		// Stamp prefetch events with the CS they are fetching for. The
		// check emits nothing, and a resident task steps next, which
		// stamps the same CS, so stamping before the check is invisible.
		core.SetCS(int32(e.CS))
	}
	if core.EnsureFetched(bases, pl.fetch) {
		return true
	}
	// The host fetches too: the scheduler is about to switch away for a
	// lap, which is the lead time the action's Go-side record needs as
	// much as its simulated lines do. Nothing in the simulator sees it.
	if pl.touch != nil {
		pl.touch(e)
	}
	return false
}

// stepEventErr builds the unknown-event diagnostic off the hot path.
//
//go:noinline
func (p *Program) stepEventErr(e *Exec, ev EventID) error {
	info := &p.cs[e.CS]
	act := &p.actions[info.Action]
	return fmt.Errorf("model: %s: action %s returned unknown event %d", info.Name, act.Name, ev)
}

// stepTransitionErr builds the missing-transition diagnostic off the
// hot path.
//
//go:noinline
func (p *Program) stepTransitionErr(e *Exec, ev EventID) error {
	info := &p.cs[e.CS]
	return fmt.Errorf("model: %s: no transition for event %q", info.Name, p.EventName(ev))
}
