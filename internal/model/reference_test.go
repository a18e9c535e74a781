package model

// This file is the span-interpreting reference executor: the original
// Program.Step / PrefetchCurrent bodies and P-state residency check,
// which walk a CSInfo's declared span tables and resolve every address
// through Resolve. It is not compiled into the library — the step plans
// (plan.go) are the only executor that ships — and exists solely as the
// oracle the differential-replay harness (differential_test.go) holds
// the compiled executor to: identical access sequences, counters and
// clocks, and, with a tracer attached, an identical event stream.

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Resolve computes the concrete simulated address of a span for the
// given execution context.
func Resolve(s Span, bind *Binding, e *Exec) uint64 {
	switch s.Base {
	case BasePerFlow:
		return bind.PerFlow.AddrAt(e.FlowIdx) + s.Off
	case BaseSubFlow:
		return bind.SubFlow.AddrAt(e.SubIdx) + s.Off
	case BasePacket:
		return e.Pkt.Addr + s.Off
	case BaseControl:
		return bind.Control.Base + s.Off
	case BaseDynamic:
		return e.Cur.Addr + s.Off
	default:
		panic(fmt.Sprintf("model: unresolvable span base %v", s.Base))
	}
}

// StepInterpreted is the reference Step. With a tracer attached it
// emits the action, per-span access and transition events, measuring
// each access as a delta of two whole counter snapshots.
func (p *Program) StepInterpreted(e *Exec) error {
	if e.CS == CSEnd {
		e.Done = true
		return nil
	}
	info := &p.cs[e.CS]
	core := e.Core
	traced := core.Tracer() != nil
	if traced {
		core.SetCS(int32(e.CS))
		core.Emit(sim.TraceActionBegin, sim.CauseNone, uint64(info.Action), 0, 0)
	}
	access := func(s Span, charge func(addr, size uint64)) {
		c0 := core.Counters()
		charge(Resolve(s, info.Bind, e), s.Size)
		if traced {
			d := core.Counters().Sub(c0)
			core.Emit(sim.TraceAccess, sim.CauseNone, uint64(s.Base), d.StallCycles, d.L1Misses<<32|d.LLCMisses)
		}
	}

	before := core.Now()
	for _, s := range info.Reads {
		access(s, core.Read)
	}
	afterReads := core.Now()

	act := &p.actions[info.Action]
	core.Compute(act.Cost)
	ev := act.Fn(e)

	preWrites := core.Now()
	for _, s := range info.Writes {
		access(s, core.Write)
	}
	e.AccessCycles += (afterReads - before) + (core.Now() - preWrites)

	if ev <= EvInvalid || int(ev) >= len(info.Next) {
		return fmt.Errorf("model: %s: action %s returned unknown event %d", info.Name, act.Name, ev)
	}
	next := info.Next[ev]
	if next < 0 {
		return fmt.Errorf("model: %s: no transition for event %q", info.Name, p.EventName(ev))
	}
	if traced {
		core.Emit(sim.TraceActionEnd, sim.CauseNone, uint64(info.Action), core.Now()-before, 0)
		core.Emit(sim.TraceTransition, sim.CauseNone, uint64(ev), uint64(next), 0)
	}
	e.CS = next
	e.Prefetched = false
	if next == CSEnd {
		e.Done = true
	}
	return nil
}

// PrefetchCurrentInterpreted is the reference PrefetchCurrent: one
// Core.Prefetch per declared span.
func (p *Program) PrefetchCurrentInterpreted(e *Exec) {
	if e.CS != CSEnd {
		if e.Core.Tracer() != nil {
			e.Core.SetCS(int32(e.CS))
		}
		info := &p.cs[e.CS]
		for _, s := range info.Prefetch {
			e.Core.Prefetch(Resolve(s, info.Bind, e), s.Size)
		}
	}
	e.Prefetched = true
}

// ResidentCurrentInterpreted is the reference ResidentCurrent: one
// Core.ResidentL1 per declared span.
func (p *Program) ResidentCurrentInterpreted(e *Exec) bool {
	if e.CS == CSEnd {
		return true
	}
	info := &p.cs[e.CS]
	for _, s := range info.Prefetch {
		if !e.Core.ResidentL1(Resolve(s, info.Bind, e), s.Size) {
			return false
		}
	}
	return true
}
