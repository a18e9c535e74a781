package sim

import "fmt"

// Core is one simulated CPU core: a cycle clock, a private three-level
// cache hierarchy with tiered residency lookup (an exact L1 index in
// front of an outer-level residency directory), a bounded asynchronous
// prefetcher, and a PMU.
//
// A Core is not safe for concurrent use; the runtime gives each worker
// its own Core, matching the paper's share-nothing per-core design.
type Core struct {
	cfg Config

	clock uint64
	l1    *cache
	l2    *cache
	llc   *cache
	ctr   Counters

	// dir is the outer-level residency directory (see dir.go): probed
	// only after an L1 miss, one probe answers which outer level — if
	// any — holds a line, so the demand-miss and prefetch paths never
	// scan a tag array. The L1 itself resolves through its own exact
	// index (see cache.go), a few KiB that stay host-cache-resident.
	dir *residencyDir
	// scan, when true, routes every lookup through the historical
	// dense tag scans instead of the tiered structures (SetScanLookups).
	// The two strategies read the same maintained state and must produce
	// bit-identical simulated results; the differential tests hold
	// them to that.
	scan bool

	// MSHR bookkeeping: mshrReady holds the fill-complete cycle of each
	// occupied MSHR (0 = free slot), mshrFree is a ring of free slot
	// indexes, and mshrInFlight counts occupied slots. minReady is the
	// earliest completion among them; while the clock is below it no
	// fill can have retired, so the occupancy check is one comparison
	// and the drain scan runs only when something actually completed.
	mshrReady    []uint64
	mshrFree     []int32
	mshrFreeHead int
	mshrFreeTail int
	mshrInFlight int
	minReady     uint64

	// warmSink absorbs warmDir's directory pre-touch loads so the
	// compiler cannot elide them; the value is meaningless. Per-core so
	// parallel sweep workers never share the written cache line.
	warmSink uint64

	// Wakeup-stamp machinery (host-side only; see planops.go). evictEpoch
	// advances whenever a resident line is displaced — L1 evictions here,
	// outer-level evictions through the directory's tombstone writes — and
	// is the validity horizon recorded next to every fill-clock wakeup
	// stamp (model.Exec.WakeAt/WakeEpoch): any consumer of a residency
	// verdict taken at epoch E may reuse it only while the epoch still
	// reads E. wakeup gates the whole machinery (SetWakeupStamps); the
	// differential wakeup twin runs with it off and must match bit for
	// bit. planTrack/planDirty/planDirtyN are the exact refinement of the
	// epoch guard inside one planned issue: while planTrack is set, every
	// line installed into or evicted from L1 is appended to planDirty, so
	// IssueFetchPlanned can reuse the residency walk's verdicts for
	// untouched lines and re-probe only lines the issue itself moved.
	// planDirtyN == -1 means the list overflowed and every verdict is
	// re-proved. planMaxReady accumulates the max fill-complete cycle of
	// the MSHRs the tracked issue occupied — the wakeup stamp itself.
	evictEpoch   uint64
	wakeup       bool
	planTrack    bool
	planDirtyN   int
	planMaxReady uint64
	planDirty    [48]uint64

	// trc, when non-nil, receives cycle-timestamped trace events;
	// curTask and curCS are the attribution stamps (see trace.go).
	// Every emission site is guarded by a nil check so the disabled
	// path costs one predictable branch and zero allocations. Events
	// accumulate in tbuf[:tn] (allocated by the first SetTracer) and
	// reach the tracer at the next flush point; trcBatch is trc's
	// BatchTracer upgrade, resolved once at attach time.
	trc      Tracer
	trcBatch BatchTracer
	tbuf     []TraceEvent
	tn       int
	curTask  int32
	curCS    int32

	// alog, when non-nil, receives every charged memory operation (see
	// accesslog.go); the differential-replay harness uses it to prove
	// two executors issue byte-identical access sequences.
	alog func(MemAccess)

	// switchInsts is SwitchCost*IssueWidth/2, precomputed so TaskSwitch
	// avoids the multiply on the scheduler's hottest edge; switchCost
	// caches cfg.SwitchCost to keep TaskSwitch within the inlining
	// budget alongside its traced-path branch.
	switchInsts uint64
	switchCost  uint64
	// issueShift is log2(IssueWidth) when the width is a power of two
	// (issuePow2), letting Compute replace its division with a shift.
	issueShift uint
	issuePow2  bool
}

// NewCore builds a core from cfg, validating it first.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	dir := newResidencyDir(cfg.L2.slots() + cfg.LLC.slots())
	c := &Core{
		cfg:         cfg,
		dir:         dir,
		l1:          newExactCache(cfg.L1),
		l2:          newOuterCache(cfg.L2, dirL2Shift, dir),
		llc:         newOuterCache(cfg.LLC, dirLLCShift, dir),
		mshrReady:   make([]uint64, cfg.MSHRs),
		mshrFree:    make([]int32, cfg.MSHRs),
		switchInsts: cfg.SwitchCost * cfg.IssueWidth / 2,
		switchCost:  cfg.SwitchCost,
		curTask:     -1,
		curCS:       -1,
		wakeup:      true,
	}
	dir.attach(c.l2, c.llc)
	dir.epoch = &c.evictEpoch
	for i := range c.mshrFree {
		c.mshrFree[i] = int32(i)
	}
	if w := cfg.IssueWidth; w&(w-1) == 0 {
		c.issuePow2 = true
		for 1<<c.issueShift < w {
			c.issueShift++
		}
	}
	return c, nil
}

// Config returns the configuration the core was built with.
func (c *Core) Config() Config { return c.cfg }

// Now returns the current cycle count.
func (c *Core) Now() uint64 { return c.clock }

// Seconds converts the elapsed cycle count to simulated wall-clock time.
func (c *Core) Seconds() float64 { return float64(c.clock) / c.cfg.FreqHz }

// Counters returns a snapshot of the PMU block (Cycles kept in sync with
// the clock).
func (c *Core) Counters() Counters {
	ctr := c.ctr
	ctr.Cycles = c.clock
	return ctr
}

// SetScanLookups selects the lookup strategy: false (the default) uses
// the tiered structures (exact L1 index, then the outer-level residency
// directory), true the historical dense tag scans. Both are maintained
// at every install regardless of mode, so the switch is valid at any
// point and changes host cost only — never a simulated result. The scan
// twin exists for differential verification; leave it off outside tests.
func (c *Core) SetScanLookups(on bool) { c.scan = on }

// SetWakeupStamps toggles the fill-clock wakeup machinery (on by
// default): the planned prefetch issue that reuses the residency walk's
// verdicts (PlanResidency/IssueFetchPlanned) and the wakeup stamps it
// returns. Purely a host-cost strategy — residency probes charge
// nothing, so both settings produce bit-identical simulated results;
// the differential wakeup twin holds them to that. Scan mode bypasses
// the machinery regardless.
func (c *Core) SetWakeupStamps(on bool) { c.wakeup = on }

// WakeupStamps reports whether the fill-clock wakeup machinery is on.
func (c *Core) WakeupStamps() bool { return c.wakeup }

// SetDirMemo toggles the residency directory's probe memo (on by
// default): a small exact cache of recent directory verdicts,
// invalidated in place at every directory mutation. Host-cost only;
// the differential twins run with it off and must match bit for bit.
func (c *Core) SetDirMemo(on bool) { c.dir.setMemo(on) }

// EvictionEpoch returns the core's eviction epoch: a host-side counter
// advanced on every L1 or outer-level eviction. A residency verdict
// recorded at epoch E (e.g. a wakeup stamp) is trivially still valid
// while the epoch reads E — no line left any level in between.
func (c *Core) EvictionEpoch() uint64 { return c.evictEpoch }

// SetEvictionEpoch forces the eviction epoch; a test hook for the
// epoch-wrap differential (the epoch is compared for equality only, so
// behavior must be identical across a wrap).
func (c *Core) SetEvictionEpoch(v uint64) { c.evictEpoch = v }

// Reset returns the core to its just-constructed state — clock,
// counters, caches, directory and prefetch state — so one pooled core
// can run back-to-back experiments from a cold start. The cost is tied
// to what the previous run actually touched, not to configured
// capacity: the L1 bumps its generation word and memsets only its
// compact tags (resetExact), and the directory sweep zeroes the outer
// levels' tags through its live entries (sweepReset) rather than
// walking megabytes of stamp and ready arrays. The reset-vs-fresh
// differential test pins the equivalence bit-for-bit. Buffered trace
// events are flushed first: they belong to the run being discarded.
func (c *Core) Reset() {
	c.FlushTrace()
	c.clock = 0
	c.ctr = Counters{}
	c.l1.resetExact()
	c.dir.sweepReset()
	for i := range c.mshrReady {
		c.mshrReady[i] = 0
		c.mshrFree[i] = int32(i)
	}
	c.mshrFreeHead = 0
	c.mshrFreeTail = 0
	c.mshrInFlight = 0
	c.minReady = 0
	c.curTask = -1
	c.curCS = -1
	// A reset displaces everything at once; stamps recorded before it
	// must not validate after.
	c.evictEpoch++
	c.planTrack = false
	c.planDirtyN = 0
}

// Compute charges insts simulated instructions of pure computation.
func (c *Core) Compute(insts uint64) {
	if insts == 0 {
		return
	}
	c.ctr.Instructions += insts
	if c.issuePow2 {
		c.clock += (insts + c.cfg.IssueWidth - 1) >> c.issueShift
	} else {
		c.clock += (insts + c.cfg.IssueWidth - 1) / c.cfg.IssueWidth
	}
}

// Stall advances the clock by cycles without retiring instructions; used
// for fixed overheads such as packet I/O batching costs.
func (c *Core) Stall(cycles uint64) {
	c.clock += cycles
	c.ctr.StallCycles += cycles
	if c.trc != nil {
		c.Emit(TraceStall, CauseFixed, cycles, 0, 0)
	}
}

// TaskSwitch charges the scheduler's NFTask switch cost. The emission
// is outlined (emitSwitch) to keep this on the inlining fast path.
func (c *Core) TaskSwitch() {
	c.ctr.TaskSwitches++
	c.clock += c.switchCost
	c.ctr.Instructions += c.switchInsts
	if c.trc != nil {
		c.emitSwitch()
	}
}

// emitSwitch is the cold traced tail of TaskSwitch.
//
//go:noinline
func (c *Core) emitSwitch() {
	c.Emit(TraceTaskSwitch, CauseNone, 0, 0, 0)
}

// StallWake advances the clock by cycles of scheduler idle time: every
// in-flight NFTask is parked on its fill clock, so the wakeup scheduler
// forwards the core to the earliest wakeup stamp instead of spinning
// probe laps. Attributed to CauseWakeWait so stall breakdowns separate
// "waiting for fills with nothing runnable" from fixed overheads.
func (c *Core) StallWake(cycles uint64) {
	c.clock += cycles
	c.ctr.StallCycles += cycles
	if c.trc != nil {
		c.Emit(TraceStall, CauseWakeWait, cycles, 0, 0)
	}
}

// EarliestMSHRReady returns the completion cycle of the earliest
// in-flight fill, or 0 when no fill is outstanding. Read-only: it never
// drains completed MSHRs, so it is safe mid-schedule. The wakeup
// scheduler uses it as the conservative horizon for a parked task whose
// stamp is empty (its prefetch issue was fully dropped for want of
// MSHRs): once any fill retires, capacity frees and progress resumes.
func (c *Core) EarliestMSHRReady() uint64 {
	if c.mshrInFlight == 0 {
		return 0
	}
	return c.minReady
}

// StampValid reports whether a wakeup stamp recorded at the given
// eviction epoch is still trivially valid: the epoch is compared for
// equality only (wrap-safe), so any eviction since the stamp — which
// may have displaced a plan line the stamp vouched for — voids it.
func (c *Core) StampValid(epoch uint64) bool { return c.evictEpoch == epoch }

// Read charges a demand read of size bytes at addr. The body is the
// exact L1 fast path: a single-line span whose home slot in the exact
// map matches charges its counters inline — the identical updates the
// general path's access() would make, including the prefetched/
// in-flight resolution (demandHitPrefetched, the same outlined tail
// access uses) — and everything else falls through to the full burst
// machinery.
func (c *Core) Read(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil && !c.scan {
		l1 := c.l1
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
			return
		}
		// Home mismatch: the line may still be resident behind probe
		// displacement — burst's full probe settles it identically.
	}
	c.burst(addr, size, false)
}

// Write charges a demand write of size bytes at addr. Writes allocate,
// so they follow the same path as reads, including the L1 fast path.
func (c *Core) Write(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil && !c.scan {
		l1 := c.l1
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
			return
		}
	}
	c.burst(addr, size, true)
}

// burst touches every line in [addr, addr+size) as one demand burst:
// the first missing line pays full latency, subsequent missing lines in
// the same burst pay BurstGap (overlapped fills). Per-line counter
// bumps are hoisted out of the loop (the final totals are identical),
// and the dominant single-line case (spans <= 64 B) skips the loop.
func (c *Core) burst(addr, size uint64, write bool) {
	if c.alog != nil {
		kind := AccessRead
		if write {
			kind = AccessWrite
		}
		c.alog(MemAccess{Addr: addr, Size: size, Cycle: c.clock, Kind: kind})
	}
	if size == 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	lines := last - first + 1
	if write {
		c.ctr.Writes += lines
	} else {
		c.ctr.Reads += lines
	}
	c.ctr.Instructions += lines
	if first == last {
		c.access(first, false)
		return
	}
	missed := false
	for line := first; line <= last; line++ {
		if c.access(line, missed) {
			missed = true
		}
	}
}

// access charges one demand line access. overlapped marks that an earlier
// line in the same burst already paid a full miss. It reports whether
// this access missed L1 entirely (i.e. was not an L1 or in-flight hit).
//
// Tiered lookup: the exact L1 index answers the hit path against a few
// host-resident KiB; only a genuine L1 miss probes the outer-level
// directory, where one probe resolves the rest of the hierarchy — an
// absent entry is the DRAM case — and no level is scanned. Victims are
// picked per installed level at install time, which is the same choice
// the historical probe-time pick made: nothing touches those sets in
// between (only other levels and the clock move, and the clock never
// writes a stamp).
func (c *Core) access(line uint64, overlapped bool) bool {
	if c.scan {
		return c.accessScan(line, overlapped)
	}
	l1 := c.l1
	slot := l1.findExact(line)
	if slot >= 0 {
		// L1 demand hit — the simulator's hottest operation, kept flat
		// here. Only prefetched or in-flight lines take the outlined
		// slow path.
		c.ctr.L1Hits++
		if l1.ready[slot] > c.clock || l1.pref[slot] {
			c.demandHitPrefetched(slot)
		}
		c.clock += c.cfg.L1.HitLatency
		l1.stamps[slot] = c.clock
		return false
	}
	c.ctr.L1Misses++
	e := c.dir.get(line)
	// Outer levels installed into accumulate their directory fields in
	// val; one setFields probe at the end records the whole fill (the
	// cluster is already host-warm from the get above). Victim fields
	// are cleared eagerly inside fillSlot. The L1 install itself needs
	// no directory traffic at all.
	var lat, mask, val uint64
	cause := CauseL2
	if s := e & dirSlotMask; s != 0 {
		slot := int(s) - 1
		c.ctr.L2Hits++
		lat = c.waitReady(c.l2, slot, c.cfg.L2.HitLatency)
		c.l2.touch(slot, c.clock)
	} else {
		c.ctr.L2Misses++
		if s := e >> dirLLCShift; s != 0 {
			slot := int(s) - 1
			c.ctr.LLCHits++
			cause = CauseLLC
			lat = c.waitReady(c.llc, slot, c.cfg.LLC.HitLatency)
			c.llc.touch(slot, c.clock)
		} else {
			c.ctr.LLCMisses++
			cause = CauseDRAM
			lat = c.cfg.DRAMLatency
			v3 := c.llc.victimOf(line)
			c.llc.fillSlot(v3, line, c.clock, c.clock)
			mask = dirSlotMask << dirLLCShift
			val = uint64(v3+1) << dirLLCShift
		}
		v2 := c.l2.victimOf(line)
		c.l2.fillSlot(v2, line, c.clock, c.clock)
		mask |= dirSlotMask << dirL2Shift
		val |= uint64(v2+1) << dirL2Shift
	}
	if overlapped && lat > c.cfg.BurstGap {
		lat = c.cfg.BurstGap
	}
	c.clock += lat
	c.ctr.StallCycles += lat
	if c.trc != nil {
		c.Emit(TraceStall, cause, lat, line<<lineShift, 0)
	}
	v1 := l1.victimOf(line)
	if l1.tags[v1] != 0 {
		c.evictEpoch++
	}
	l1.fillExact(v1, line, c.clock, c.clock)
	if mask != 0 {
		c.dir.setFields(line, mask, val)
	}
	return true
}

// accessScan is the verification-twin access path: identical logic to
// access driven by the historical per-level dense tag scans (the fused
// probe returns both the hit slot and the install victim). Each level
// is probed exactly once; the probe that misses also yields the install
// victim, which stays valid because nothing touches that set again
// before the install.
func (c *Core) accessScan(line uint64, overlapped bool) bool {
	slot, v1 := c.l1.probe(line)
	if slot >= 0 {
		c.ctr.L1Hits++
		if c.l1.ready[slot] > c.clock || c.l1.pref[slot] {
			c.demandHitPrefetched(slot)
		}
		c.clock += c.cfg.L1.HitLatency
		c.l1.stamps[slot] = c.clock
		return false
	}
	c.ctr.L1Misses++
	var lat uint64
	cause := CauseL2
	if slot, v2 := c.l2.probe(line); slot >= 0 {
		c.ctr.L2Hits++
		lat = c.waitReady(c.l2, slot, c.cfg.L2.HitLatency)
		c.l2.touch(slot, c.clock)
	} else {
		c.ctr.L2Misses++
		if slot, v3 := c.llc.probe(line); slot >= 0 {
			c.ctr.LLCHits++
			cause = CauseLLC
			lat = c.waitReady(c.llc, slot, c.cfg.LLC.HitLatency)
			c.llc.touch(slot, c.clock)
		} else {
			c.ctr.LLCMisses++
			cause = CauseDRAM
			lat = c.cfg.DRAMLatency
			c.llc.installAt(v3, line, c.clock, c.clock)
		}
		c.l2.installAt(v2, line, c.clock, c.clock)
	}
	if overlapped && lat > c.cfg.BurstGap {
		lat = c.cfg.BurstGap
	}
	c.clock += lat
	c.ctr.StallCycles += lat
	if c.trc != nil {
		c.Emit(TraceStall, cause, lat, line<<lineShift, 0)
	}
	if c.l1.tags[v1] != 0 {
		c.evictEpoch++
	}
	c.l1.installAt(v1, line, c.clock, c.clock)
	return true
}

// demandHitPrefetched resolves a demand hit on a prefetched L1 line:
// either the fill is still in flight (stall for the remainder — a late
// prefetch) or it completed and the prefetch was useful.
//
//go:noinline
func (c *Core) demandHitPrefetched(slot int) {
	if r := c.l1.ready[slot]; r > c.clock {
		stall := r - c.clock
		c.clock += stall
		c.ctr.StallCycles += stall
		c.ctr.PrefetchLate++
		c.l1.pref[slot] = false
		if c.trc != nil {
			c.Emit(TraceStall, CausePrefetchLate, stall, 0, 0)
		}
	} else if c.l1.pref[slot] {
		c.ctr.PrefetchUseful++
		c.l1.pref[slot] = false
		if c.trc != nil {
			c.Emit(TracePrefetchUseful, CauseNone, 0, 0, 0)
		}
	}
}

// waitReady stalls until an outer-level slot's fill completes, then
// charges that level's hit latency; returns the total charged cycles
// minus the stall (stall is applied immediately). The stall branch is
// outlined (stallLate) to keep waitReady inlinable.
func (c *Core) waitReady(lvl *cache, slot int, hitLat uint64) uint64 {
	if ready := lvl.ready[slot]; ready > c.clock {
		c.stallLate(ready - c.clock)
	}
	return hitLat
}

// stallLate charges a wait for an in-flight fill to complete.
//
//go:noinline
func (c *Core) stallLate(stall uint64) {
	c.clock += stall
	c.ctr.StallCycles += stall
	c.ctr.PrefetchLate++
	if c.trc != nil {
		c.Emit(TraceStall, CausePrefetchLate, stall, 0, 0)
	}
}

// Prefetch issues non-blocking fills for every line of [addr, addr+size).
// Lines already in L1 are counted redundant; fills beyond the free MSHRs
// are dropped. Each accepted or redundant line charges the issue cost.
func (c *Core) Prefetch(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	if first == last {
		c.prefetchLine(first)
		return
	}
	for line := first; line <= last; line++ {
		c.prefetchLine(line)
	}
}

// PrefetchLine issues a prefetch for the single cache line containing
// addr. It is the pre-resolved form the step-plan compiler lowers
// Prefetch spans into: Prefetch(addr, size) over an aligned span is
// exactly one PrefetchLine per covered line, in ascending order.
func (c *Core) PrefetchLine(addr uint64) {
	c.prefetchLine(addr >> lineShift)
}

func (c *Core) prefetchLine(line uint64) {
	if c.alog != nil {
		c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
	}
	c.clock += c.cfg.PrefetchIssueCost
	c.ctr.Instructions++
	if c.scan {
		if c.l1.find(line) >= 0 {
			c.prefetchRedundant(line)
			return
		}
		c.prefetchMissScan(line)
		return
	}
	// The redundancy check is the exact L1 index; only a genuine miss
	// pays the directory probe that prices the fill.
	if c.l1.findExact(line) >= 0 {
		c.prefetchRedundant(line)
		return
	}
	c.prefetchMiss(line)
}

// prefetchRedundant charges a prefetch for a line already in L1.
func (c *Core) prefetchRedundant(line uint64) {
	c.ctr.PrefetchRedundant++
	if c.trc != nil {
		c.Emit(TracePrefetchRedundant, CauseNone, line<<lineShift, 0, 0)
	}
}

// prefetchMiss is the tail of a prefetch issue for a line known absent
// from L1: MSHR admission, fill-latency determination and the installs.
// The directory probe that prices the fill runs only after admission —
// a dropped prefetch changes nothing the probe could inform, so the
// cold table touch would be pure waste on the drop path.
func (c *Core) prefetchMiss(line uint64) {
	if c.scan {
		c.prefetchMissScan(line)
		return
	}
	if c.mshrInFlight > 0 && c.clock >= c.minReady {
		c.drainMSHRs()
	}
	if c.mshrInFlight >= c.cfg.MSHRs {
		c.prefetchDropped(line)
		return
	}
	c.prefetchMissAt(line, c.dir.get(line))
}

// prefetchMissAt finishes an *admitted* prefetch issue given the line's
// outer-level directory value e (the caller established absence from L1
// and MSHR availability).
func (c *Core) prefetchMissAt(line uint64, e uint64) {
	// Fill latency depends on where the line currently lives. Victims
	// are picked lazily — only the levels actually installed into pay
	// the LRU pass, and redundant/dropped issues above pay none. As in
	// access, outer installs batch their directory fields into one
	// setFields probe on the warm cluster; outer hits write nothing.
	var mask, val, fill uint64
	if e&dirSlotMask != 0 {
		fill = c.cfg.L2.HitLatency
	} else if e>>dirLLCShift != 0 {
		fill = c.cfg.LLC.HitLatency
	} else {
		fill = c.cfg.DRAMLatency
		v3 := c.llc.victimOf(line)
		c.llc.fillSlot(v3, line, c.clock, c.clock+fill)
		v2 := c.l2.victimOf(line)
		c.l2.fillSlot(v2, line, c.clock, c.clock+fill)
		mask = dirSlotMask<<dirLLCShift | dirSlotMask<<dirL2Shift
		val = uint64(v3+1)<<dirLLCShift | uint64(v2+1)<<dirL2Shift
	}
	ready := c.clock + fill
	v1 := c.l1.victimOf(line)
	if c.l1.tags[v1] != 0 {
		c.evictEpoch++
		if c.planTrack {
			c.planDirtyAdd(c.l1.lineOf(v1))
		}
	}
	if c.planTrack {
		c.planDirtyAdd(line)
		if ready > c.planMaxReady {
			c.planMaxReady = ready
		}
	}
	c.l1.fillExact(v1, line, c.clock, ready)
	c.l1.pref[v1] = true
	if mask != 0 {
		c.dir.setFields(line, mask, val)
	}
	c.mshrPush(ready)
	c.ctr.PrefetchIssued++
	if c.trc != nil {
		c.Emit(TracePrefetchIssued, CauseNone, line<<lineShift, ready, 0)
	}
}

// planDirtyAdd records a line the current planned issue installed or
// evicted, so the residency verdicts PlanResidency recorded stay
// reusable for every line not in the list. Overflow (planDirtyN == -1)
// disables verdict reuse for the rest of the issue — the exact,
// conservative fallback.
func (c *Core) planDirtyAdd(line uint64) {
	n := c.planDirtyN
	if n < 0 {
		return
	}
	if n == len(c.planDirty) {
		c.planDirtyN = -1
		return
	}
	c.planDirty[n] = line
	c.planDirtyN = n + 1
}

// planClean reports whether line was untouched by the current planned
// issue so far (and the dirty list did not overflow): a verdict taken
// by the walk is still exact for it.
func (c *Core) planClean(line uint64) bool {
	n := c.planDirtyN
	if n < 0 {
		return false
	}
	for _, d := range c.planDirty[:n] {
		if d == line {
			return false
		}
	}
	return true
}

// mshrPush occupies one MSHR until the fill completes at ready.
func (c *Core) mshrPush(ready uint64) {
	idx := c.mshrFree[c.mshrFreeHead]
	c.mshrFreeHead++
	if c.mshrFreeHead == len(c.mshrFree) {
		c.mshrFreeHead = 0
	}
	c.mshrReady[idx] = ready
	c.mshrInFlight++
	if c.mshrInFlight == 1 || ready < c.minReady {
		c.minReady = ready
	}
}

// prefetchMissScan is the verification-twin tail of a prefetch issue,
// probing the outer levels by dense tag scan.
func (c *Core) prefetchMissScan(line uint64) {
	if c.mshrInFlight > 0 && c.clock >= c.minReady {
		c.drainMSHRs()
	}
	if c.mshrInFlight >= c.cfg.MSHRs {
		c.prefetchDropped(line)
		return
	}
	var fill uint64
	if c.l2.find(line) >= 0 {
		fill = c.cfg.L2.HitLatency
	} else if c.llc.find(line) >= 0 {
		fill = c.cfg.LLC.HitLatency
	} else {
		fill = c.cfg.DRAMLatency
		c.llc.installAt(c.llc.victimOf(line), line, c.clock, c.clock+fill)
		c.l2.installAt(c.l2.victimOf(line), line, c.clock, c.clock+fill)
	}
	ready := c.clock + fill
	v1 := c.l1.victimOf(line)
	if c.l1.tags[v1] != 0 {
		c.evictEpoch++
	}
	c.l1.installAt(v1, line, c.clock, ready)
	c.l1.pref[v1] = true
	c.mshrPush(ready)
	c.ctr.PrefetchIssued++
	if c.trc != nil {
		c.Emit(TracePrefetchIssued, CauseNone, line<<lineShift, ready, 0)
	}
}

// prefetchDropped charges a prefetch rejected for want of MSHRs.
func (c *Core) prefetchDropped(line uint64) {
	c.ctr.PrefetchDropped++
	if c.trc != nil {
		c.Emit(TracePrefetchDropped, CauseNone, line<<lineShift, 0, 0)
	}
}

// drainMSHRs retires every fill whose completion cycle has passed,
// returning its slot to the free ring, and recomputes minReady over the
// survivors. Callers gate on clock >= minReady, so between completions
// the occupancy check never scans.
func (c *Core) drainMSHRs() {
	next := ^uint64(0)
	for i, r := range c.mshrReady {
		if r == 0 {
			continue
		}
		if r > c.clock {
			if r < next {
				next = r
			}
			continue
		}
		c.mshrReady[i] = 0
		c.mshrFree[c.mshrFreeTail] = int32(i)
		c.mshrFreeTail++
		if c.mshrFreeTail == len(c.mshrFree) {
			c.mshrFreeTail = 0
		}
		c.mshrInFlight--
	}
	c.minReady = next
}

// activeMSHRs returns the number of fills still in flight at the
// current clock; diagnostic twin of the admission check.
func (c *Core) activeMSHRs() int {
	if c.mshrInFlight > 0 && c.clock >= c.minReady {
		c.drainMSHRs()
	}
	return c.mshrInFlight
}

// DMAFill installs the lines of [addr, addr+size) into the LLC without
// charging core cycles, modelling DDIO: the NIC DMA-writes received
// packet buffers into the last-level cache, so the core's first header
// access costs an LLC hit rather than a DRAM round trip.
func (c *Core) DMAFill(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	for line := first; line <= last; line++ {
		if c.scan {
			if slot, victim := c.llc.probe(line); slot < 0 {
				c.llc.installAt(victim, line, c.clock, c.clock)
			}
		} else if c.dir.get(line)>>dirLLCShift == 0 {
			c.llc.installAt(c.llc.victimOf(line), line, c.clock, c.clock)
		}
	}
}

// ResidentL1 reports whether every line of [addr, addr+size) is present
// in L1 (in-flight fills count as present). The scheduler uses this to
// maintain the NFTask P-state.
func (c *Core) ResidentL1(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	if c.scan {
		for line := first; line <= last; line++ {
			if c.l1.find(line) < 0 {
				return false
			}
		}
		return true
	}
	for line := first; line <= last; line++ {
		if c.l1.findExact(line) < 0 {
			return false
		}
	}
	return true
}

// ResidentL1Line reports whether the single line containing addr is
// present in L1 (in-flight fills count as present): the exact map's
// home probe in the common case, the pre-resolved form of ResidentL1
// used by compiled step plans. The home probe is spelled out here
// (rather than delegating to findExact) so the call inlines into the
// scheduler's P-state check loop.
func (c *Core) ResidentL1Line(addr uint64) bool {
	line := addr >> lineShift
	if c.scan {
		return c.l1.find(line) >= 0
	}
	l1 := c.l1
	k := l1.kv[((line*fibMul)>>l1.mapShift)*2]
	if k == l1.genw+(line<<1|1) {
		return true
	}
	if k&1 == 0 || k>>l1GenShift != l1.gen {
		// Free or stale home slot: the authoritative miss verdict.
		return false
	}
	return l1.findExact(line) >= 0
}
