package sim

// This file is the core-side executor for compiled step plans (see
// internal/model's plan compiler). Plans lower every declared access to
// a (base-table index, pre-added offset) pair; the loops that charge
// those accesses live here, on the Core, so one call per phase replaces
// one call per access and the L1 pointers, clock and counters
// stay register-resident across a whole span list.
//
// The charged sequence is identical to calling Read/Write/Prefetch/
// ResidentL1 once per op in op order — the loops below are those calls
// inlined, nothing more.

// PlanOp is one compiled read or write: addr = bases[Base&7] + Off.
// Kind is the plan compiler's attribution tag for the span (its
// model.BaseKind), carried verbatim as the A argument of the op's
// TraceAccess event; it rides in PlanOp's padding and the untraced
// loops never read it.
type PlanOp struct {
	Off  uint64
	Size uint64
	Base uint8
	Kind uint8
}

// FetchOp is one compiled prefetch/residency step: a pre-resolved
// single line (Line == true, Off is the line-start offset) or a span
// fallback for bases whose alignment is unknown at compile time.
type FetchOp struct {
	Off  uint64
	Size uint64
	Base uint8
	Line bool
}

// ReadSpans charges a demand read per op, exactly Read(addr, size) in
// op order: Read's way-hint fast path hoisted into the loop, and
// anything else — hint miss, outer-level residency, multi-line span —
// falls through to the full burst machinery. l1Hit is spelled out by
// hand because it is past the inliner's budget and the call costs this
// loop 3-6% end to end on L1-resident traffic (a single loop shared
// with WriteSpans through a flag measured 2% slower still). With a
// tracer that consumes TraceAccess the same ops run through
// spansTraced, which adds the per-op events.
func (c *Core) ReadSpans(bases *[8]uint64, ops []PlanOp) {
	if c.kinds&(1<<TraceAccess) != 0 {
		c.spansTraced(bases, ops, false)
		return
	}
	l1 := c.l1
	fast := c.alog == nil
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if fast && (addr+op.Size-1)>>lineShift == line && op.Size != 0 {
			if s := l1.hinted(line); s >= 0 {
				c.ctr.Reads++
				c.ctr.Instructions++
				c.ctr.L1Hits++
				if l1.ready[s] > c.clock || l1.pref[s] {
					c.demandHitPrefetched(s)
				}
				c.clock += c.cfg.L1.HitLatency
				l1.stamps[s] = c.clock
				continue
			}
		}
		c.burst(addr, op.Size, false)
	}
}

// WriteSpans charges a demand write per op, exactly Write(addr, size)
// in op order.
func (c *Core) WriteSpans(bases *[8]uint64, ops []PlanOp) {
	if c.kinds&(1<<TraceAccess) != 0 {
		c.spansTraced(bases, ops, true)
		return
	}
	l1 := c.l1
	fast := c.alog == nil
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if fast && (addr+op.Size-1)>>lineShift == line && op.Size != 0 {
			if s := l1.hinted(line); s >= 0 {
				c.ctr.Writes++
				c.ctr.Instructions++
				c.ctr.L1Hits++
				if l1.ready[s] > c.clock || l1.pref[s] {
					c.demandHitPrefetched(s)
				}
				c.clock += c.cfg.L1.HitLatency
				l1.stamps[s] = c.clock
				continue
			}
		}
		c.burst(addr, op.Size, true)
	}
}

// spansTraced is ReadSpans/WriteSpans with a tracer that consumes
// TraceAccess: the same charged sequence — the L1 way-hint hit inline,
// everything else through burst — each op followed by its TraceAccess
// event: A = the op's attribution tag, B = stall cycles within the
// access, C = L1 misses <<32 | LLC misses. A hinted hit misses nothing
// and can stall only on a late prefetch, so the three counters the
// event carries are sampled around the access only off that path.
//
//go:noinline
func (c *Core) spansTraced(bases *[8]uint64, ops []PlanOp, write bool) {
	l1 := c.l1
	fast := c.alog == nil
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if fast && (addr+op.Size-1)>>lineShift == line && op.Size != 0 {
			if s := l1.hinted(line); s >= 0 {
				if write {
					c.ctr.Writes++
				} else {
					c.ctr.Reads++
				}
				c.ctr.Instructions++
				c.ctr.L1Hits++
				var stall uint64
				if l1.ready[s] > c.clock || l1.pref[s] {
					before := c.ctr.StallCycles
					c.demandHitPrefetched(s)
					stall = c.ctr.StallCycles - before
				}
				c.clock += c.cfg.L1.HitLatency
				l1.stamps[s] = c.clock
				c.Emit(TraceAccess, CauseNone, uint64(op.Kind), stall, 0)
				continue
			}
		}
		stall, l1m, llc := c.ctr.StallCycles, c.ctr.L1Misses, c.ctr.LLCMisses
		c.burst(addr, op.Size, write)
		c.Emit(TraceAccess, CauseNone, uint64(op.Kind),
			c.ctr.StallCycles-stall, (c.ctr.L1Misses-l1m)<<32|(c.ctr.LLCMisses-llc))
	}
}

// fetchLine resolves op against bases: its address, its first line, and
// whether it covers exactly that one line at run time — a Line op, or a
// span op that happens to. Every fetch-plan loop treats the two alike.
func fetchLine(bases *[8]uint64, op *FetchOp) (addr, line uint64, one bool) {
	addr = bases[op.Base&7] + op.Off
	line = addr >> lineShift
	return addr, line, op.Line || op.Size != 0 && (addr+op.Size-1)>>lineShift == line
}

// IssueFetch issues the whole fetch plan blind, exactly PrefetchLine /
// Prefetch per op in op order.
func (c *Core) IssueFetch(bases *[8]uint64, ops []FetchOp) {
	for i := range ops {
		if addr, line, one := fetchLine(bases, &ops[i]); one {
			c.prefetchLine(line)
		} else {
			c.Prefetch(addr, ops[i].Size)
		}
	}
}

// EnsureFetched is the scheduler's P-stage visit over a fetch plan. It
// reports whether every op's lines are L1-resident and, when one is
// not, issues the whole plan exactly as IssueFetch would. The residency
// check is the first absent op's L1 probe, and that probe's victim is
// the one its fill installs into: the ops before it are resident, so
// their issues are redundant — they write no stamp and skip their
// probes — and the clock alone never evicts. Ops after the miss take
// IssueFetch's probing path. The check charges nothing and emits
// nothing.
func (c *Core) EnsureFetched(bases *[8]uint64, ops []FetchOp) (resident bool) {
	l1 := c.l1
	for i := range ops {
		addr, line, one := fetchLine(bases, &ops[i])
		if !one {
			if !c.ResidentL1(addr, ops[i].Size) {
				c.fetchFrom(bases, ops, i, -1)
				return false
			}
			continue
		}
		if l1.hinted(line) >= 0 {
			continue
		}
		if slot, v1 := l1.probe(line); slot < 0 {
			c.fetchFrom(bases, ops, i, v1)
			return false
		}
	}
	return true
}

// fetchFrom is EnsureFetched's issue: ops[:miss] are resident and op
// miss is absent, its L1 victim v1 when it covers a single line (-1 for
// a span, which goes through Prefetch).
func (c *Core) fetchFrom(bases *[8]uint64, ops []FetchOp, miss, v1 int) {
	for i := range ops[:miss] {
		if addr, line, one := fetchLine(bases, &ops[i]); one {
			c.chargeIssue(line)
			c.prefetchRedundant(line)
		} else {
			c.Prefetch(addr, ops[i].Size)
		}
	}
	if addr, line, _ := fetchLine(bases, &ops[miss]); v1 >= 0 {
		c.chargeIssue(line)
		c.prefetchMiss(line, v1)
	} else {
		c.Prefetch(addr, ops[miss].Size)
	}
	c.IssueFetch(bases, ops[miss+1:])
}
