package sim

import (
	"math/rand"
	"testing"
)

// This file pins the claim Core.Reset makes: a reset core is
// observationally identical to a freshly constructed one, bit for bit.
// Reset zeroes only the tags and deliberately leaves stale words behind
// (old stamps, the L1's ready values and pref flags, the outer levels'
// pending flags, way hints), relying on them
// being unreachable; these tests replay randomized op streams on
// dirty-then-reset cores against fresh cores in lockstep and require
// identical clocks, counters, residency answers and access logs at
// every step.

// coreOp is one randomized public-API operation.
type coreOp struct {
	kind byte
	addr uint64
	size uint64
}

// genOps builds a deterministic op stream mixing a hot (L1-sized), a
// mid (L2/LLC-sized) and a cold region, so streams exercise L1 hits, outer
// hits, DRAM fills, prefetch (including MSHR saturation), DMA fills,
// resets of the clock via stalls, and residency probes.
func genOps(seed int64, n int) []coreOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]coreOp, n)
	for i := range ops {
		var a uint64
		switch rng.Intn(3) {
		case 0:
			a = uint64(rng.Intn(16 << 10))
		case 1:
			a = 1<<22 + uint64(rng.Intn(1<<21))
		default:
			a = 1<<30 + uint64(rng.Intn(1<<28))
		}
		ops[i] = coreOp{
			kind: byte(rng.Intn(10)),
			addr: a,
			size: uint64(1 + rng.Intn(96)),
		}
	}
	return ops
}

// apply runs one op; for residency probes it returns the answer so the
// caller can compare across cores.
func apply(c *Core, op coreOp) (res bool) {
	switch op.kind {
	case 0:
		c.Stall(17)
	case 1:
		c.Compute(op.size * 3)
	case 2:
		c.TaskSwitch()
	case 3:
		c.Prefetch(op.addr, op.size)
	case 4:
		c.PrefetchLine(op.addr)
	case 5:
		c.DMAFill(op.addr, op.size)
	case 6:
		res = c.ResidentL1(op.addr, op.size)
	case 7:
		res = c.ResidentL1(op.addr, 1)
	case 8:
		c.Write(op.addr, op.size)
	default:
		c.Read(op.addr, op.size)
	}
	return res
}

// dirtyCore returns a core that has run `cycles` rounds of a polluting
// workload, each followed by Reset — so its stale (supposedly
// unreachable) words carry several runs' worth of garbage.
func dirtyCore(t *testing.T, cfg Config, seed int64, cycles int) *Core {
	t.Helper()
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		for _, op := range genOps(seed+int64(i), 4000) {
			apply(c, op)
		}
		c.Reset()
	}
	return c
}

// lockstep replays ops on both cores, comparing clock and residency
// answers after every op and full counters periodically.
func lockstep(t *testing.T, label string, dirty, fresh *Core, ops []coreOp) {
	t.Helper()
	for i, op := range ops {
		dr := apply(dirty, op)
		fr := apply(fresh, op)
		if dr != fr {
			t.Fatalf("%s: op %d (%+v): residency answer diverged: reset-core %v, fresh %v", label, i, op, dr, fr)
		}
		if dn, fn := dirty.Now(), fresh.Now(); dn != fn {
			t.Fatalf("%s: op %d (%+v): clock diverged: reset-core %d, fresh %d", label, i, op, dn, fn)
		}
		if i%512 == 0 {
			if dc, fc := dirty.Counters(), fresh.Counters(); dc != fc {
				t.Fatalf("%s: op %d: counters diverged:\nreset-core %+v\nfresh      %+v", label, i, dc, fc)
			}
		}
	}
	if dc, fc := dirty.Counters(), fresh.Counters(); dc != fc {
		t.Fatalf("%s: final counters diverged:\nreset-core %+v\nfresh      %+v", label, dc, fc)
	}
}

// TestResetEquivalence replays a randomized op stream on a core that
// has been polluted and Reset (several times) against a fresh core,
// with the production fast paths active (no access log attached).
func TestResetEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	dirty := dirtyCore(t, cfg, 101, 3)
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, "fastpath", dirty, fresh, genOps(202, 30000))
}

// TestResetEquivalenceAccessLog is the differential-replay form: both
// cores record their charged memory operations, and the two logs must
// be element-wise identical (addresses, sizes, kinds, and the cycle
// each was charged at).
func TestResetEquivalenceAccessLog(t *testing.T) {
	cfg := DefaultConfig()
	dirty := dirtyCore(t, cfg, 303, 2)
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dlog, flog []MemAccess
	dirty.SetAccessLog(func(m MemAccess) { dlog = append(dlog, m) })
	fresh.SetAccessLog(func(m MemAccess) { flog = append(flog, m) })
	lockstep(t, "accesslog", dirty, fresh, genOps(404, 20000))
	if len(dlog) != len(flog) {
		t.Fatalf("access log length diverged: reset-core %d, fresh %d", len(dlog), len(flog))
	}
	for i := range dlog {
		if dlog[i] != flog[i] {
			t.Fatalf("access log entry %d diverged: reset-core %+v, fresh %+v", i, dlog[i], flog[i])
		}
	}
}

// TestResetEquivalenceScanTwin pins what makes the tags-only reset
// sound. After a polluting run and a Reset the core must still carry
// that run's stamps on every level, the L1's ready words, an outer
// level's pending flags and the way hints (otherwise this test pins
// nothing), no hint may verify against a zeroed tag, and replaying
// the very same stream — so every stale hint is consulted for the line
// that wrote it — must match a fresh core bit for bit.
func TestResetEquivalenceScanTwin(t *testing.T) {
	cfg := DefaultConfig()
	dirty, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(505, 20000)
	for _, op := range ops {
		apply(dirty, op)
	}
	l1 := dirty.l1
	var held []uint64
	for slot, tag := range l1.tags {
		if tag != 0 {
			held = append(held, uint64(tag>>1)<<l1.setShift|uint64(slot/l1.ways))
		}
	}
	dirty.Reset()
	pending := 0
	for li, lvl := range []*cache{dirty.l1, dirty.l2, dirty.llc} {
		stale := 0
		for slot, tag := range lvl.tags {
			if tag != 0 {
				t.Fatalf("level %d slot %d: tag %#x survived Reset", li, slot, tag)
			}
			if lvl.stamps[slot] != 0 && (lvl.ready == nil || lvl.ready[slot] != 0) {
				stale++
			}
			if lvl.pending != nil && lvl.pending[slot] {
				pending++
			}
		}
		if stale == 0 {
			t.Fatalf("level %d: Reset left no stale stamp/ready words; the test no longer exercises them", li)
		}
	}
	if pending == 0 {
		t.Fatal("Reset left no stale pending flag on an outer level; the test no longer exercises them")
	}
	hints := 0
	for _, w := range l1.hint {
		if w != 0 {
			hints++
		}
	}
	if hints == 0 || len(held) == 0 {
		t.Fatalf("no stale L1 hints to exercise (%d nonzero hints, %d lines held)", hints, len(held))
	}
	for _, line := range held {
		if s := l1.hinted(line); s >= 0 {
			t.Fatalf("line %#x: stale hint verified slot %d against a zeroed tag", line, s)
		}
		if dirty.ResidentL1(line<<lineShift, 1) {
			t.Fatalf("line %#x still L1-resident after Reset", line)
		}
	}
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, "stale", dirty, fresh, ops)
}
