package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the simulator's executable specification: a deliberately
// naive cache hierarchy (a slice of lines per set, a linear MSHR list,
// no hints, no fast paths) that states what every Core operation means,
// and a lock-step driver that holds Core to it after every operation of
// randomized streams. Any host-side structure Core uses to answer
// faster must be invisible here.

// refLine is one resident line of a reference set. Its index in the set
// slice is its way: lines are appended until the set is full and then
// replaced in place, which is the valid-prefix rule.
type refLine struct {
	line, stamp, ready uint64
	pref               bool
}

type refLevel struct {
	cfg  CacheConfig
	sets [][]refLine
}

func newRefLevel(cfg CacheConfig) refLevel {
	return refLevel{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
}

func (l *refLevel) set(line uint64) *[]refLine { return &l.sets[line%uint64(len(l.sets))] }

func (l *refLevel) find(line uint64) *refLine {
	set := *l.set(line)
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// install places a non-resident line: the lowest free way, else the way
// with the strictly oldest stamp (ties to the lowest index).
func (l *refLevel) install(nl refLine) {
	set := l.set(nl.line)
	if len(*set) < l.cfg.Ways {
		*set = append(*set, nl)
		return
	}
	victim := 0
	for i := range *set {
		if (*set)[i].stamp < (*set)[victim].stamp {
			victim = i
		}
	}
	(*set)[victim] = nl
}

type refCore struct {
	cfg         Config
	clock       uint64
	ctr         Counters
	l1, l2, llc refLevel
	mshr        []uint64 // completion cycles of in-flight fills, unordered
}

func newRefCore(cfg Config) *refCore {
	return &refCore{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), llc: newRefLevel(cfg.LLC)}
}

func (r *refCore) reset() {
	*r = refCore{cfg: r.cfg,
		l1: newRefLevel(r.cfg.L1), l2: newRefLevel(r.cfg.L2), llc: newRefLevel(r.cfg.LLC)}
}

func (r *refCore) counters() Counters {
	ctr := r.ctr
	ctr.Cycles = r.clock
	return ctr
}

func (r *refCore) install(l *refLevel, line, ready uint64, pref bool) {
	l.install(refLine{line: line, stamp: r.clock, ready: ready, pref: pref})
}

func (r *refCore) stall(cycles uint64) {
	r.clock += cycles
	r.ctr.StallCycles += cycles
}

func (r *refCore) compute(insts uint64) {
	r.ctr.Instructions += insts
	r.clock += (insts + r.cfg.IssueWidth - 1) / r.cfg.IssueWidth
}

func (r *refCore) taskSwitch() {
	r.ctr.TaskSwitches++
	r.clock += r.cfg.SwitchCost
	r.ctr.Instructions += r.cfg.SwitchCost * r.cfg.IssueWidth / 2
}

func lineRange(addr, size uint64) (first, last uint64) {
	return addr >> lineShift, (addr + size - 1) >> lineShift
}

// demand is Read/Write: one burst over the covered lines, the first
// full miss paying its latency and later ones at most BurstGap.
func (r *refCore) demand(addr, size uint64, write bool) {
	if size == 0 {
		return
	}
	first, last := lineRange(addr, size)
	missed := false
	for line := first; line <= last; line++ {
		if write {
			r.ctr.Writes++
		} else {
			r.ctr.Reads++
		}
		r.ctr.Instructions++
		if r.access(line, missed) {
			missed = true
		}
	}
}

// waitFill stalls for an in-flight fill a demand access ran into.
func (r *refCore) waitFill(ready uint64) bool {
	if ready <= r.clock {
		return false
	}
	r.stall(ready - r.clock)
	r.ctr.PrefetchLate++
	return true
}

func (r *refCore) access(line uint64, overlapped bool) bool {
	if e := r.l1.find(line); e != nil {
		r.ctr.L1Hits++
		if !r.waitFill(e.ready) && e.pref {
			r.ctr.PrefetchUseful++
		}
		e.pref = false
		r.clock += r.cfg.L1.HitLatency
		e.stamp = r.clock
		return false
	}
	r.ctr.L1Misses++
	var lat uint64
	if e := r.l2.find(line); e != nil {
		r.ctr.L2Hits++
		r.waitFill(e.ready)
		e.stamp = r.clock
		lat = r.cfg.L2.HitLatency
	} else {
		r.ctr.L2Misses++
		if e := r.llc.find(line); e != nil {
			r.ctr.LLCHits++
			r.waitFill(e.ready)
			e.stamp = r.clock
			lat = r.cfg.LLC.HitLatency
		} else {
			r.ctr.LLCMisses++
			lat = r.cfg.DRAMLatency
			r.install(&r.llc, line, r.clock, false)
		}
		r.install(&r.l2, line, r.clock, false)
	}
	if overlapped && lat > r.cfg.BurstGap {
		lat = r.cfg.BurstGap
	}
	r.stall(lat)
	r.install(&r.l1, line, r.clock, false)
	return true
}

func (r *refCore) prefetchLine(line uint64) {
	r.clock += r.cfg.PrefetchIssueCost
	r.ctr.Instructions++
	if r.l1.find(line) != nil {
		r.ctr.PrefetchRedundant++
		return
	}
	live := r.mshr[:0]
	for _, ready := range r.mshr {
		if ready > r.clock {
			live = append(live, ready)
		}
	}
	r.mshr = live
	if len(r.mshr) >= r.cfg.MSHRs {
		r.ctr.PrefetchDropped++
		return
	}
	var ready uint64
	switch {
	case r.l2.find(line) != nil:
		ready = r.clock + r.cfg.L2.HitLatency
	case r.llc.find(line) != nil:
		ready = r.clock + r.cfg.LLC.HitLatency
	default:
		ready = r.clock + r.cfg.DRAMLatency
		r.install(&r.llc, line, ready, false)
		r.install(&r.l2, line, ready, false)
	}
	r.install(&r.l1, line, ready, true)
	r.mshr = append(r.mshr, ready)
	r.ctr.PrefetchIssued++
}

func (r *refCore) prefetch(addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineRange(addr, size)
	for line := first; line <= last; line++ {
		r.prefetchLine(line)
	}
}

func (r *refCore) dmaFill(addr, size uint64) {
	if size == 0 {
		return
	}
	first, last := lineRange(addr, size)
	for line := first; line <= last; line++ {
		if r.llc.find(line) == nil {
			r.install(&r.llc, line, r.clock, false)
		}
	}
}

func (r *refCore) residentL1(addr, size uint64) bool {
	if size == 0 {
		return true
	}
	first, last := lineRange(addr, size)
	for line := first; line <= last; line++ {
		if r.l1.find(line) == nil {
			return false
		}
	}
	return true
}

func (r *refCore) mshrHorizon() uint64 {
	var earliest uint64
	for i, ready := range r.mshr {
		if i == 0 || ready < earliest {
			earliest = ready
		}
	}
	return earliest
}

// refOp is one step of a randomized stream; plan ops carry their
// compiled span/fetch lists.
type refOp struct {
	kind       int
	addr, size uint64
	bases      [8]uint64
	spans      []PlanOp
	fetch      []FetchOp
}

const refOpKinds = 24

// oracleStep applies op to both models and returns a description of the
// first observable difference in the op's own results ("" when none).
func oracleStep(c *Core, r *refCore, op *refOp) string {
	switch op.kind {
	case 0, 1:
		c.Stall(op.size)
		r.stall(op.size)
	case 2:
		c.Compute(op.size)
		r.compute(op.size)
	case 3:
		c.TaskSwitch()
		r.taskSwitch()
	case 4, 5:
		c.Prefetch(op.addr, op.size)
		r.prefetch(op.addr, op.size)
	case 6, 7:
		c.PrefetchLine(op.addr)
		r.prefetchLine(op.addr >> lineShift)
	case 8:
		c.DMAFill(op.addr, op.size)
		r.dmaFill(op.addr, op.size)
	case 9:
		if got, want := c.ResidentL1(op.addr, op.size), r.residentL1(op.addr, op.size); got != want {
			return fmt.Sprintf("ResidentL1 = %v, reference %v", got, want)
		}
	case 10:
		if got, want := c.ResidentL1(op.addr, 1), r.residentL1(op.addr, 1); got != want {
			return fmt.Sprintf("ResidentL1 of one byte = %v, reference %v", got, want)
		}
	case 11:
		if op.size%61 == 0 {
			c.Reset()
			r.reset()
		}
	case 12, 13:
		c.Write(op.addr, op.size)
		r.demand(op.addr, op.size, true)
	case 14:
		c.ReadSpans(&op.bases, op.spans)
		for _, s := range op.spans {
			r.demand(op.bases[s.Base&7]+s.Off, s.Size, false)
		}
	case 15:
		c.WriteSpans(&op.bases, op.spans)
		for _, s := range op.spans {
			r.demand(op.bases[s.Base&7]+s.Off, s.Size, true)
		}
	case 16:
		// The scheduler's P-stage visit: residency walk, then (only on a
		// miss) the whole plan issued.
		want := -1
		for i, f := range op.fetch {
			if !r.residentL1(op.bases[f.Base&7]+f.Off, f.Size) {
				want = i
				break
			}
		}
		if want >= 0 {
			for _, f := range op.fetch {
				r.prefetch(op.bases[f.Base&7]+f.Off, f.Size)
			}
		}
		if got := c.EnsureFetched(&op.bases, op.fetch); got != (want < 0) {
			return fmt.Sprintf("EnsureFetched = %v, reference first miss %d", got, want)
		}
	case 17:
		// The blind issue of the whole plan.
		c.IssueFetch(&op.bases, op.fetch)
		for _, f := range op.fetch {
			r.prefetch(op.bases[f.Base&7]+f.Off, f.Size)
		}
	default:
		c.Read(op.addr, op.size)
		r.demand(op.addr, op.size, false)
	}
	return ""
}

// oracleState compares everything observable without perturbing Core
// (no lookups, so hints stay as the stream left them): counters, clock,
// MSHR horizon, and — when deep — every slot of every level against
// the reference's sets, way for way.
func oracleState(c *Core, r *refCore, deep bool) string {
	if got, want := c.Counters(), r.counters(); got != want {
		return fmt.Sprintf("counters diverged:\ncore      %+v\nreference %+v", got, want)
	}
	if got, want := mshrHeadReady(c), r.mshrHorizon(); got != want {
		return fmt.Sprintf("earliest MSHR completion = %d, reference %d", got, want)
	}
	if !deep {
		return ""
	}
	for li, pair := range []struct {
		lvl *cache
		ref *refLevel
	}{{c.l1, &r.l1}, {c.l2, &r.l2}, {c.llc, &r.llc}} {
		lvl := pair.lvl
		for s, set := range pair.ref.sets {
			for w := 0; w < lvl.ways; w++ {
				slot := s*lvl.ways + w
				if w >= len(set) {
					if lvl.tags[slot] != 0 {
						return fmt.Sprintf("level %d set %d way %d: tag %#x, reference way is free", li, s, w, lvl.tags[slot])
					}
					continue
				}
				e := set[w]
				if lvl.tags[slot] != lvl.tagOf(e.line) || lvl.stamps[slot] != e.stamp || !sameReadiness(c, lvl, slot, e) {
					return fmt.Sprintf("level %d set %d way %d: tag %#x stamp %d %s, reference %+v",
						li, s, w, lvl.tags[slot], lvl.stamps[slot], fillState(lvl, slot), e)
				}
			}
		}
	}
	return ""
}

// sameReadiness reports whether slot's fill state says exactly what the
// reference line's ready word does. The L1 keeps the word itself (and
// the prefetched flag), compared as is. An outer slot keeps only its
// pending flag: a pending slot's fill completes DRAMLatency after its
// stamp, which must be the reference's ready word; any other slot must
// be one the reference holds ready by its stamp, so that a demand hit
// (which comes no earlier than the stamp) never waits.
func sameReadiness(c *Core, lvl *cache, slot int, e refLine) bool {
	if lvl.pending == nil {
		return lvl.ready[slot] == e.ready && lvl.pref[slot] == e.pref
	}
	if lvl.pending[slot] {
		return lvl.stamps[slot]+c.cfg.DRAMLatency == e.ready
	}
	return e.ready <= e.stamp
}

// fillState formats slot's fill state for a divergence report.
func fillState(lvl *cache, slot int) string {
	if lvl.pending == nil {
		return fmt.Sprintf("ready %d pref %v", lvl.ready[slot], lvl.pref[slot])
	}
	return fmt.Sprintf("pending %v", lvl.pending[slot])
}

// oracleConfigs are the hierarchy shapes the oracle runs over: the
// default, and small ones that evict at every level within a few ops
// and hit the corners — non-power-of-two ways, one-set and one-way
// levels, a single MSHR, and zero issue/hit costs so that LRU stamps
// tie and the ties-to-lowest-index rule decides victims. The vector
// shapes give every width the set-scan kernel takes (8, 16, 32 and 64
// ways) a level with few sets, so its scans evict within a few ops.
func oracleConfigs() map[string]Config {
	lvl := func(name string, sets, ways int, lat uint64) CacheConfig {
		return CacheConfig{Name: name, SizeBytes: sets * ways * LineBytes, Ways: ways, HitLatency: lat}
	}
	zeroCosts := func(c Config) Config {
		c.L1.HitLatency, c.L2.HitLatency, c.LLC.HitLatency = 0, 0, 0
		c.PrefetchIssueCost = 0
		c.DRAMLatency = 1
		c.BurstGap = 0
		return c
	}
	small := Config{
		L1: lvl("L1", 4, 3, 4), L2: lvl("L2", 8, 6, 14), LLC: lvl("LLC", 16, 12, 50),
		DRAMLatency: 200, MSHRs: 5, PrefetchIssueCost: 2, SwitchCost: 12, IssueWidth: 3, BurstGap: 30, FreqHz: 1e9,
	}
	corners := small
	corners.L1 = lvl("L1", 1, 5, 4)   // one set
	corners.L2 = lvl("L2", 16, 1, 14) // direct-mapped
	corners.MSHRs = 1
	wide := small
	wide.LLC = lvl("LLC", 2, 300, 50) // more ways than a hint byte can name
	vector := small
	vector.L1, vector.L2, vector.LLC = lvl("L1", 2, 8, 4), lvl("L2", 2, 16, 14), lvl("LLC", 2, 64, 50)
	vectorMSHR := vector
	vectorMSHR.L1, vectorMSHR.L2 = lvl("L1", 1, 16, 4), lvl("L2", 2, 32, 14)
	vectorMSHR.MSHRs = 1
	return map[string]Config{
		"default": DefaultConfig(), "small": small, "corners": corners, "ties": zeroCosts(small), "wide": wide,
		"vector": vector, "vector-ties": zeroCosts(vector), "vector-mshr1": vectorMSHR,
	}
}

// genRefOps draws a stream over three regions sized from cfg: one that
// fits L1, one around the L2/LLC capacities, and one several times the
// LLC, so every level sees hits, conflict evictions and cold misses.
func genRefOps(rng *rand.Rand, cfg Config, n int) []refOp {
	l1, llc := uint64(cfg.L1.SizeBytes), uint64(cfg.LLC.SizeBytes)
	addr := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Uint64() % l1
		case 1:
			return 1<<24 + rng.Uint64()%(llc+llc/2)
		default:
			return 1<<30 + rng.Uint64()%(8*llc)
		}
	}
	ops := make([]refOp, n)
	for i := range ops {
		op := &ops[i]
		op.kind = rng.Intn(refOpKinds)
		op.addr = addr()
		op.size = uint64(rng.Intn(200)) // 0 included: zero-size ops are free
		if op.kind < 14 || op.kind > 17 {
			continue
		}
		for b := range op.bases {
			op.bases[b] = addr() &^ (LineBytes - 1)
		}
		for k := rng.Intn(6); k >= 0; k-- {
			base, off := uint8(rng.Intn(8)), uint64(rng.Intn(4*LineBytes))
			op.spans = append(op.spans, PlanOp{Off: off, Size: uint64(rng.Intn(130)), Base: base})
			if rng.Intn(2) == 0 {
				op.fetch = append(op.fetch, FetchOp{Off: off &^ (LineBytes - 1), Size: LineBytes, Base: base, Line: true})
			} else {
				op.fetch = append(op.fetch, FetchOp{Off: off, Size: uint64(rng.Intn(130)), Base: base})
			}
		}
	}
	return ops
}

// TestReferenceOracle drives Core and the reference hierarchy in
// lock-step and requires identical observable state after every op.
// With a tracer attached the span loops take their traced form, which
// must charge the same sequence. When any level of the core scans with
// the vector kernel, the config runs again as "scalar" with every level
// turned back to the loops, so both scans answer to the reference on
// the same shapes.
func TestReferenceOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				c := runOracle(t, name, cfg, traced, false)
				if c.l1.vec || c.l2.vec || c.llc.vec {
					t.Run("scalar", func(t *testing.T) { runOracle(t, name, cfg, traced, true) })
				}
			})
		}
	}
}

// TestEnsureFetchedSameSet drives EnsureFetched through the case its
// victim hand-off has to survive: every line of the plan maps to one
// full L1 set, the first op is resident — and holds the set's LRU way,
// which its redundant issue must not refresh — and the three absent ops
// after it each evict. The miss op installs into the victim the
// residency check chose; the two after it probe the set afresh. With one
// MSHR, held by an earlier prefetch, the miss op and both after it drop.
// Counters, clock, the MSHR horizon and every way of every level must
// match the reference issuing one PrefetchLine per op.
func TestEnsureFetchedSameSet(t *testing.T) {
	for _, tc := range []struct {
		mshrs           int
		issued, dropped uint64
	}{{DefaultConfig().MSHRs, 4, 0}, {1, 1, 3}} {
		t.Run(fmt.Sprintf("mshrs=%d", tc.mshrs), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MSHRs = tc.mshrs
			c, err := NewCore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := newRefCore(cfg)
			const set = 5
			sets := uint64(cfg.L1.Sets())
			lineAt := func(k int) uint64 { return (uint64(k)*sets + set) * LineBytes }
			for k := 0; k < cfg.L1.Ways; k++ { // oldest first: lineAt(0) is the LRU way
				c.Read(lineAt(k), 8)
				r.demand(lineAt(k), 8, false)
			}
			other := lineAt(0) + LineBytes // another set; holds an MSHR
			c.PrefetchLine(other)
			r.prefetchLine(other >> lineShift)

			var bases [8]uint64
			ops := make([]FetchOp, 4)
			for i, k := range []int{0, cfg.L1.Ways, cfg.L1.Ways + 1, cfg.L1.Ways + 2} {
				ops[i] = FetchOp{Off: lineAt(k), Size: LineBytes, Line: true}
			}
			if c.EnsureFetched(&bases, ops) {
				t.Fatal("plan with three absent lines reported resident")
			}
			for _, op := range ops {
				r.prefetchLine(op.Off >> lineShift)
			}
			if diff := oracleState(c, r, true); diff != "" {
				t.Fatal(diff)
			}
			ctr := c.Counters()
			if ctr.PrefetchIssued != tc.issued || ctr.PrefetchDropped != tc.dropped || ctr.PrefetchRedundant != 1 {
				t.Fatalf("issued %d dropped %d redundant %d, want %d, %d, 1",
					ctr.PrefetchIssued, ctr.PrefetchDropped, ctr.PrefetchRedundant, tc.issued, tc.dropped)
			}
		})
	}
}

// runOracle runs one config's randomized stream against the reference
// and returns the core; scalar turns off the vector scans first.
func runOracle(t *testing.T, name string, cfg Config, traced, scalar bool) *Core {
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scalar {
		c.l1.vec, c.l2.vec, c.llc.vec = false, false, false
	}
	if traced {
		c.SetTracer(countingTracer{})
	}
	r := newRefCore(cfg)
	n := 60000
	if testing.Short() {
		n = 15000
	}
	ops := genRefOps(rand.New(rand.NewSource(int64(len(name))+41)), cfg, n)
	for i := range ops {
		diff := oracleStep(c, r, &ops[i])
		if diff == "" {
			diff = oracleState(c, r, i%997 == 0 || i == len(ops)-1)
		}
		if diff != "" {
			t.Fatalf("op %d (kind %d addr %#x size %d): %s", i, ops[i].kind, ops[i].addr, ops[i].size, diff)
		}
	}
	return c
}
