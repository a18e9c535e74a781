package sim

import "fmt"

// Core is one simulated CPU core: a cycle clock, a private three-level
// cache hierarchy whose dense tag arrays are the only residency record
// (see cache.go), a bounded asynchronous prefetcher, and a PMU.
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

	// mshr is a ring of the in-flight fills' completion cycles, kept
	// sorted ascending from mshrHead (indexes wrap through mshrMask; the
	// ring's capacity is MSHRs rounded up to a power of two, occupancy is
	// bounded by cfg.MSHRs at admission). The head is the earliest
	// completion, so the occupancy check is one comparison, a drain pops
	// the head while it is due, and a push is a short insertion from the
	// tail.
	mshr     []uint64
	mshrMask uint
	mshrHead uint
	mshrN    int

	// trc, when non-nil, receives cycle-timestamped trace events;
	// curTask and curCS are the attribution stamps (see trace.go).
	// kinds is the set of event kinds trc consumes (zero without a
	// tracer): every emission site tests its kind's bit, so the
	// disabled path — and a kind nobody consumes — costs one
	// predictable branch and zero allocations. Events accumulate in
	// tbuf[:tn] (allocated by the first SetTracer) and reach the tracer
	// at the next flush point; trcBatch is trc's BatchTracer upgrade.
	// All three are resolved once at attach time, and so is
	// traceSwitch, kinds' TraceTaskSwitch bit as a plain bool: testing
	// the bit would push TaskSwitch over the inlining budget.
	trc         Tracer
	trcBatch    BatchTracer
	kinds       TraceKinds
	traceSwitch bool
	tbuf        []TraceEvent
	tn          int
	curTask     int32
	curCS       int32

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

// l1HintBits sizes the L1 way-hint table (log2 entries, one byte each),
// written on every L1 install and host-cache-resident. The L2 and LLC
// get the degenerate one-entry table: since their set scans became one
// vector compare, a 64 KiB L2 table no longer wins (see EXPERIMENTS.md
// for the A/Bs behind both choices).
const l1HintBits = 12

// NewCore builds a core from cfg, validating it first.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	ring := 1
	for ring < cfg.MSHRs {
		ring <<= 1
	}
	c := &Core{
		cfg:         cfg,
		l1:          newCache(cfg.L1, l1HintBits),
		l2:          newCache(cfg.L2, 0),
		llc:         newCache(cfg.LLC, 0),
		mshr:        make([]uint64, ring),
		mshrMask:    uint(ring - 1),
		switchInsts: cfg.SwitchCost * cfg.IssueWidth / 2,
		switchCost:  cfg.SwitchCost,
		curTask:     -1,
		curCS:       -1,
	}
	c.l1.ready = make([]uint64, len(c.l1.tags))
	c.l1.pref = make([]bool, len(c.l1.tags))
	c.l2.pending = make([]bool, len(c.l2.tags))
	c.llc.pending = make([]bool, len(c.llc.tags))
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

// Counters returns a snapshot of the PMU block (Cycles kept in sync with
// the clock).
func (c *Core) Counters() Counters {
	ctr := c.ctr
	ctr.Cycles = c.clock
	return ctr
}

// Reset returns the core to its just-constructed state — clock,
// counters, caches and prefetch state — so one pooled core can run
// back-to-back experiments from a cold start. The cost is the three
// tag memsets (about 200 KiB for the default hierarchy); stamps, the
// L1's ready words and pref flags, the outer levels' pending flags and
// way hints are left stale because nothing can reach them through a
// zeroed tag (see cache.reset). The reset-vs-fresh
// differential tests pin the equivalence bit-for-bit. Buffered trace
// events are flushed first: they belong to the run being discarded.
func (c *Core) Reset() {
	c.FlushTrace()
	c.clock = 0
	c.ctr = Counters{}
	c.l1.reset()
	c.l2.reset()
	c.llc.reset()
	c.mshrHead = 0
	c.mshrN = 0
	c.curTask = -1
	c.curCS = -1
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
	if c.kinds&(1<<TraceStall) != 0 {
		c.Emit(TraceStall, CauseFixed, cycles, 0, 0)
	}
}

// TaskSwitch charges the scheduler's NFTask switch cost. The emission
// is outlined (emitSwitch) to keep this on the inlining fast path.
func (c *Core) TaskSwitch() {
	c.ctr.TaskSwitches++
	c.clock += c.switchCost
	c.ctr.Instructions += c.switchInsts
	if c.traceSwitch {
		c.emitSwitch()
	}
}

// emitSwitch is the cold traced tail of TaskSwitch.
//
//go:noinline
func (c *Core) emitSwitch() {
	c.Emit(TraceTaskSwitch, CauseNone, 0, 0, 0)
}

// Read charges a demand read of size bytes at addr. The body is the L1
// fast path: a single-line span whose way hint verifies is charged as
// the hit the general path's access() would find, and everything else
// falls through to the full burst machinery.
func (c *Core) Read(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil {
		if s := c.l1.hinted(line); s >= 0 {
			c.ctr.Reads++
			c.ctr.Instructions++
			c.l1Hit(s)
			return
		}
	}
	c.burst(addr, size, false)
}

// Write charges a demand write of size bytes at addr. Writes allocate,
// so they follow the same path as reads, including the L1 fast path.
func (c *Core) Write(addr, size uint64) {
	line := addr >> lineShift
	if (addr+size-1)>>lineShift == line && size != 0 && c.alog == nil {
		if s := c.l1.hinted(line); s >= 0 {
			c.ctr.Writes++
			c.ctr.Instructions++
			c.l1Hit(s)
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
// Each level is probed exactly once; the probe that misses also yields
// the install victim, which stays valid because nothing touches that set
// again before the install (only other levels and the clock move, and
// the clock never writes a stamp).
func (c *Core) access(line uint64, overlapped bool) bool {
	slot, v1 := c.l1.probe(line)
	if slot >= 0 {
		c.l1Hit(slot)
		return false
	}
	c.ctr.L1Misses++
	var lat uint64
	cause := CauseL2
	if slot, v2 := c.l2.probe(line); slot >= 0 {
		c.ctr.L2Hits++
		lat = c.waitReady(c.l2, slot, c.cfg.L2.HitLatency)
		c.l2.stamps[slot] = c.clock
	} else {
		c.ctr.L2Misses++
		if slot, v3 := c.llc.probe(line); slot >= 0 {
			c.ctr.LLCHits++
			cause = CauseLLC
			lat = c.waitReady(c.llc, slot, c.cfg.LLC.HitLatency)
			c.llc.stamps[slot] = c.clock
		} else {
			c.ctr.LLCMisses++
			cause = CauseDRAM
			lat = c.cfg.DRAMLatency
			c.llc.fill(v3, line, c.clock)
			c.llc.pending[v3] = false
		}
		c.l2.fill(v2, line, c.clock)
		c.l2.pending[v2] = false
	}
	if overlapped && lat > c.cfg.BurstGap {
		lat = c.cfg.BurstGap
	}
	c.clock += lat
	c.ctr.StallCycles += lat
	if c.kinds&(1<<TraceStall) != 0 {
		c.Emit(TraceStall, cause, lat, line<<lineShift, 0)
	}
	c.installL1(v1, line, c.clock, false)
	return true
}

// l1Hit charges a demand hit on L1 slot s — the simulator's hottest
// operation. Only prefetched or in-flight lines take the outlined slow
// path. The caller counts the read or write and its instruction.
func (c *Core) l1Hit(s int) {
	l1 := c.l1
	c.ctr.L1Hits++
	if l1.ready[s] > c.clock || l1.pref[s] {
		c.demandHitPrefetched(s)
	}
	c.clock += c.cfg.L1.HitLatency
	l1.stamps[s] = c.clock
}

// installL1 fills victim slot v of the L1 with line at the current
// clock. The L1 also owns the prefetched flag and is the one level
// whose installs write the way hint.
func (c *Core) installL1(v int, line, readyAt uint64, pref bool) {
	l1 := c.l1
	l1.fill(v, line, c.clock)
	l1.ready[v] = readyAt
	l1.pref[v] = pref
	l1.setHint(line, v)
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
		if c.kinds&(1<<TraceStall) != 0 {
			c.Emit(TraceStall, CausePrefetchLate, stall, 0, 0)
		}
	} else if c.l1.pref[slot] {
		c.ctr.PrefetchUseful++
		c.l1.pref[slot] = false
		if c.kinds&(1<<TracePrefetchUseful) != 0 {
			c.Emit(TracePrefetchUseful, CauseNone, 0, 0, 0)
		}
	}
}

// waitReady stalls until an outer-level slot's fill completes, then
// charges that level's hit latency; returns the total charged cycles
// minus the stall (stall is applied immediately). Only a slot still
// marked pending can be in flight; that branch is outlined (stallLate)
// to keep waitReady inlinable.
func (c *Core) waitReady(lvl *cache, slot int, hitLat uint64) uint64 {
	if lvl.pending[slot] {
		c.stallLate(lvl, slot)
	}
	return hitLat
}

// stallLate resolves a demand hit on an outer slot a DRAM prefetch
// filled: the flag clears before the hit rewrites the stamp it is
// measured from, and if the fill (due DRAMLatency after that stamp) is
// still in flight the core waits for the remainder — a late prefetch.
//
//go:noinline
func (c *Core) stallLate(lvl *cache, slot int) {
	lvl.pending[slot] = false
	ready := lvl.stamps[slot] + c.cfg.DRAMLatency
	if ready <= c.clock {
		return
	}
	stall := ready - c.clock
	c.clock += stall
	c.ctr.StallCycles += stall
	c.ctr.PrefetchLate++
	if c.kinds&(1<<TraceStall) != 0 {
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

// prefetchLine issues one line's prefetch: the issue charge, then one
// L1 probe whose miss also names the victim the fill installs into.
func (c *Core) prefetchLine(line uint64) {
	c.chargeIssue(line)
	if slot, v1 := c.l1.probe(line); slot >= 0 {
		c.prefetchRedundant(line)
	} else {
		c.prefetchMiss(line, v1)
	}
}

// chargeIssue charges one line's prefetch instruction, logging it as a
// prefetch access when an access log is attached (outlined in
// logPrefetch to keep this inlinable).
func (c *Core) chargeIssue(line uint64) {
	if c.alog != nil {
		c.logPrefetch(line)
	}
	c.clock += c.cfg.PrefetchIssueCost
	c.ctr.Instructions++
}

// logPrefetch is chargeIssue's access-log tail.
//
//go:noinline
func (c *Core) logPrefetch(line uint64) {
	c.alog(MemAccess{Addr: line << lineShift, Size: LineBytes, Cycle: c.clock, Kind: AccessPrefetch})
}

// prefetchRedundant charges a prefetch for a line already in L1.
func (c *Core) prefetchRedundant(line uint64) {
	c.ctr.PrefetchRedundant++
	if c.kinds&(1<<TracePrefetchRedundant) != 0 {
		c.Emit(TracePrefetchRedundant, CauseNone, line<<lineShift, 0, 0)
	}
}

// prefetchMiss is the tail of a prefetch issue for a line known absent
// from L1, whose probe chose v1 as its L1 victim: MSHR admission,
// fill-latency determination and the installs. The outer-level probes
// that price the fill run only after admission — a dropped prefetch
// changes nothing they could inform — and each level is probed once, a
// miss yielding that level's victim. An outer hit writes nothing. The
// victims stay valid for the same reason as in access: between a probe
// and its install only other levels, the MSHR ring and the clock move.
func (c *Core) prefetchMiss(line uint64, v1 int) {
	for c.mshrN > 0 && c.mshr[c.mshrHead&c.mshrMask] <= c.clock {
		c.mshrHead++
		c.mshrN--
	}
	if c.mshrN >= c.cfg.MSHRs {
		c.prefetchDropped(line)
		return
	}
	var ready uint64
	if slot, v2 := c.l2.probe(line); slot >= 0 {
		ready = c.clock + c.cfg.L2.HitLatency
	} else if slot, v3 := c.llc.probe(line); slot >= 0 {
		ready = c.clock + c.cfg.LLC.HitLatency
	} else {
		ready = c.clock + c.cfg.DRAMLatency
		c.llc.fill(v3, line, c.clock)
		c.llc.pending[v3] = true
		c.l2.fill(v2, line, c.clock)
		c.l2.pending[v2] = true
	}
	c.installL1(v1, line, ready, true)
	c.mshrPush(ready)
	c.ctr.PrefetchIssued++
	if c.kinds&(1<<TracePrefetchIssued) != 0 {
		c.Emit(TracePrefetchIssued, CauseNone, line<<lineShift, ready, 0)
	}
}

// mshrPush occupies one MSHR until the fill completes at ready,
// keeping the ring sorted: larger completion cycles shift one place
// toward the tail until ready's position opens.
func (c *Core) mshrPush(ready uint64) {
	m := c.mshrMask
	i := c.mshrHead + uint(c.mshrN)
	for i != c.mshrHead && c.mshr[(i-1)&m] > ready {
		c.mshr[i&m] = c.mshr[(i-1)&m]
		i--
	}
	c.mshr[i&m] = ready
	c.mshrN++
}

// prefetchDropped charges a prefetch rejected for want of MSHRs.
func (c *Core) prefetchDropped(line uint64) {
	c.ctr.PrefetchDropped++
	if c.kinds&(1<<TracePrefetchDropped) != 0 {
		c.Emit(TracePrefetchDropped, CauseNone, line<<lineShift, 0, 0)
	}
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
		if slot, victim := c.llc.probe(line); slot < 0 {
			c.llc.fill(victim, line, c.clock)
			c.llc.pending[victim] = false
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
	for line := first; line <= last; line++ {
		if c.l1.find(line) < 0 {
			return false
		}
	}
	return true
}
