package sim

// This file is the core-side executor for compiled step plans (see
// internal/model's plan compiler). Plans lower every declared access to
// a (base-table index, pre-added offset) pair; the loops that charge
// those accesses live here, on the Core, so one call per phase replaces
// one call per access and the L1 index pointers, clock and counters
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
// op order. The single-line L1-hit fast path is the exact map's home
// probe spelled out inline (Read's own fast path, hoisted into the
// loop), including the prefetched/in-flight resolution via the same
// outlined demandHitPrefetched tail; anything else — probe
// displacement, outer-level residency, multi-line span — falls through
// to the full burst machinery. With a tracer attached the same ops run
// through spansTraced, which adds the per-op TraceAccess events.
func (c *Core) ReadSpans(bases *[8]uint64, ops []PlanOp) {
	if c.trc != nil {
		c.spansTraced(bases, ops, false)
		return
	}
	l1 := c.l1
	fast := c.alog == nil && !c.scan
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if fast && (addr+op.Size-1)>>lineShift == line && op.Size != 0 {
			f := ((line * fibMul) >> l1.mapShift) * 2
			if l1.kv[f] == l1.genw+(line<<1|1) {
				s := int(l1.kv[f+1])
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
	if c.trc != nil {
		c.spansTraced(bases, ops, true)
		return
	}
	l1 := c.l1
	fast := c.alog == nil && !c.scan
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		line := addr >> lineShift
		if fast && (addr+op.Size-1)>>lineShift == line && op.Size != 0 {
			f := ((line * fibMul) >> l1.mapShift) * 2
			if l1.kv[f] == l1.genw+(line<<1|1) {
				s := int(l1.kv[f+1])
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

// spansTraced is ReadSpans/WriteSpans with a tracer attached: Read or
// Write per op in op order — the loops above are those calls inlined,
// so the charged sequence is the same — each followed by the op's
// TraceAccess event: A = the op's attribution tag, B = stall cycles
// within the access, C = L1 misses <<32 | LLC misses. Only the three
// counters the event carries are sampled around the access.
//
//go:noinline
func (c *Core) spansTraced(bases *[8]uint64, ops []PlanOp, write bool) {
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		stall, l1, llc := c.ctr.StallCycles, c.ctr.L1Misses, c.ctr.LLCMisses
		if write {
			c.Write(addr, op.Size)
		} else {
			c.Read(addr, op.Size)
		}
		c.Emit(TraceAccess, CauseNone, uint64(op.Kind),
			c.ctr.StallCycles-stall, (c.ctr.L1Misses-l1)<<32|(c.ctr.LLCMisses-llc))
	}
}

// FirstNonResident returns the index of the first op whose lines are
// not all L1-resident, or -1 when the whole plan is resident. Residency
// probes charge nothing, exactly like ResidentL1. Single-line ops
// resolve on the exact map's home probe in the common case; only probe
// displacement walks the cluster.
func (c *Core) FirstNonResident(bases *[8]uint64, ops []FetchOp) int {
	if c.scan {
		return c.firstNonResidentScan(bases, ops)
	}
	l1 := c.l1
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			line := addr >> lineShift
			k := l1.kv[((line*fibMul)>>l1.mapShift)*2]
			if k == l1.genw+(line<<1|1) {
				continue
			}
			if k&1 == 0 || k>>l1GenShift != l1.gen {
				// Free or stale home slot: the authoritative miss.
				return i
			}
			if l1.findExact(line) < 0 {
				return i
			}
		} else if !c.ResidentL1(addr, op.Size) {
			return i
		}
	}
	return -1
}

// warmDir touches the directory home slot of every line op at or after
// the first known miss, before the issue loop probes them for real.
// Pure host-side memory-level parallelism: the loads are independent
// and issued back to back, so the host overlaps their cache misses,
// where the issue loop's probes are separated by enough dependent work
// (fills, victim passes, MSHR bookkeeping) that each miss would
// serialize. Reads only; no simulated state is touched.
func (c *Core) warmDir(bases *[8]uint64, ops []FetchOp, miss int) {
	d := c.dir
	var w uint64
	for i := miss; i < len(ops); i++ {
		op := &ops[i]
		if op.Line {
			line := (bases[op.Base&7] + op.Off) >> lineShift
			w ^= d.tab[(line*fibMul)>>d.shift]
		}
	}
	c.warmSink = w
}

// firstNonResidentScan is the verification-twin FirstNonResident,
// probing L1 by dense tag scan.
func (c *Core) firstNonResidentScan(bases *[8]uint64, ops []FetchOp) int {
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			if c.l1.find(addr>>lineShift) < 0 {
				return i
			}
		} else if !c.ResidentL1(addr, op.Size) {
			return i
		}
	}
	return -1
}

// IssueFetch issues the whole fetch plan, exactly PrefetchLine /
// Prefetch per op in op order. miss is the index FirstNonResident just
// returned (or a negative value when the caller has no residency
// knowledge): ops before it are still resident — the issue loop
// installs nothing before reaching op miss, and the clock alone never
// evicts — so their probes are skipped and the redundant path charged
// directly; op miss, when it is a single line, is likewise still absent
// and skips its guaranteed-miss L1 probe (prefetchMiss probes the
// outer directory once to price the fill). Ops after miss take the full
// probing path: the exact L1 index answers the redundancy check, and
// only a genuine miss pays the directory probe for the fill source. The
// charged sequence is identical to issuing the plan blind.
func (c *Core) IssueFetch(bases *[8]uint64, ops []FetchOp, miss int) {
	if !c.scan && miss >= 0 {
		c.warmDir(bases, ops, miss)
	}
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			line := addr >> lineShift
			if c.alog != nil {
				c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
			}
			c.clock += c.cfg.PrefetchIssueCost
			c.ctr.Instructions++
			switch {
			case i < miss:
				c.prefetchRedundant(line)
			case i == miss:
				c.prefetchMiss(line)
			default:
				if c.scan {
					if c.l1.find(line) >= 0 {
						c.prefetchRedundant(line)
					} else {
						c.prefetchMissScan(line)
					}
					continue
				}
				if c.l1.findExact(line) >= 0 {
					c.prefetchRedundant(line)
				} else {
					c.prefetchMiss(line)
				}
			}
		} else {
			c.Prefetch(addr, op.Size)
		}
	}
}

// PlanResidency is FirstNonResident extended with a verdict record: it
// walks the WHOLE plan (not just to the first miss) and returns the
// first-miss OP index plus a bitmask of covered LINES — bit j for the
// j-th line the plan visits, ops in order and span ops expanded into
// their ascending covered lines, exactly the enumeration the issue loop
// charges. IssueFetchPlanned replays that enumeration and reuses the
// verdicts instead of re-probing, under an exactness guard (see there);
// lines past the 64-bit budget are simply re-probed there. Residency
// probes charge nothing, exactly like FirstNonResident; with wakeup
// stamps disabled (or in scan mode) it degrades to FirstNonResident and
// an empty mask.
func (c *Core) PlanResidency(bases *[8]uint64, ops []FetchOp) (miss int, resident uint64) {
	if c.scan || !c.wakeup {
		return c.FirstNonResident(bases, ops), 0
	}
	miss = -1
	j := uint(0)
	l1 := c.l1
	for i := range ops {
		if miss >= 0 && j >= 64 {
			// Mask budget exhausted with the miss already found: further
			// verdicts have no consumer.
			break
		}
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			line := addr >> lineShift
			ok := false
			k := l1.kv[((line*fibMul)>>l1.mapShift)*2]
			if k == l1.genw+(line<<1|1) {
				ok = true
			} else if k&1 == 0 || k>>l1GenShift != l1.gen {
				// Free or stale home slot: the authoritative miss.
			} else {
				ok = l1.findExact(line) >= 0
			}
			if ok {
				if j < 64 {
					resident |= 1 << j
				}
			} else if miss < 0 {
				miss = i
			}
			j++
		} else if op.Size != 0 {
			first := addr >> lineShift
			last := (addr + op.Size - 1) >> lineShift
			for line := first; line <= last; line++ {
				ok := false
				k := l1.kv[((line*fibMul)>>l1.mapShift)*2]
				if k == l1.genw+(line<<1|1) {
					ok = true
				} else if k&1 == 0 || k>>l1GenShift != l1.gen {
				} else {
					ok = l1.findExact(line) >= 0
				}
				if ok {
					if j < 64 {
						resident |= 1 << j
					}
				} else if miss < 0 {
					miss = i
				}
				j++
			}
		}
		// Size == 0 spans cover no lines and consume no mask bits,
		// matching Prefetch's immediate return.
	}
	return miss, resident
}

// IssueFetchPlanned issues the whole fetch plan using the residency
// verdicts PlanResidency just recorded, and returns the max MSHR
// ready-cycle of the fills it issued (the caller's wakeup stamp; 0 when
// nothing was installed or stamps are disabled). The charged sequence
// is identical to IssueFetch — only host-side re-probing disappears: it
// replays PlanResidency's line enumeration (ops in order, spans
// expanded into ascending lines) and consumes one verdict bit per line.
//
// Exactness of verdict reuse: within this one call, a resident verdict
// can only be invalidated by an L1 eviction of that line, and an absent
// verdict only by an L1 install of that line. Both transitions pass
// through prefetchMissAt, which appends the installed line and the
// evicted victim's line to the per-call dirty list. A line off the list
// keeps its walk verdict; a dirty or unmasked (bit index >= 64) line
// re-probes exactly as IssueFetch would, and dirty-list overflow
// disables reuse wholesale.
func (c *Core) IssueFetchPlanned(bases *[8]uint64, ops []FetchOp, miss int, resident uint64) uint64 {
	if c.scan || !c.wakeup {
		c.IssueFetch(bases, ops, miss)
		return 0
	}
	c.planTrack = true
	c.planDirtyN = 0
	c.planMaxReady = 0
	j := uint(0)
	for i := range ops {
		op := &ops[i]
		addr := bases[op.Base&7] + op.Off
		if op.Line {
			c.issueLinePlanned(addr>>lineShift, j, resident)
			j++
		} else if op.Size != 0 {
			first := addr >> lineShift
			last := (addr + op.Size - 1) >> lineShift
			for line := first; line <= last; line++ {
				c.issueLinePlanned(line, j, resident)
				j++
			}
		}
	}
	c.planTrack = false
	return c.planMaxReady
}

// issueLinePlanned charges one planned prefetch line: exactly
// prefetchLine, with the L1 redundancy probe replaced by the recorded
// verdict bit when that verdict is still clean.
func (c *Core) issueLinePlanned(line uint64, j uint, resident uint64) {
	if c.alog != nil {
		c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
	}
	c.clock += c.cfg.PrefetchIssueCost
	c.ctr.Instructions++
	if j < 64 && c.planClean(line) {
		if resident&(1<<j) != 0 {
			c.prefetchRedundant(line)
		} else {
			c.prefetchMiss(line)
		}
	} else if c.l1.findExact(line) >= 0 {
		c.prefetchRedundant(line)
	} else {
		c.prefetchMiss(line)
	}
}
