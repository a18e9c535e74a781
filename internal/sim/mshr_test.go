package sim

import (
	"math/rand"
	"testing"
)

// checkMSHRRing asserts the ring's invariant: occupancy within the
// configured MSHR count and completion cycles ascending from the head.
func checkMSHRRing(t *testing.T, c *Core) {
	t.Helper()
	if c.mshrN < 0 || c.mshrN > c.cfg.MSHRs {
		t.Fatalf("MSHR occupancy %d outside [0, %d]", c.mshrN, c.cfg.MSHRs)
	}
	for i := 1; i < c.mshrN; i++ {
		prev := c.mshr[(c.mshrHead+uint(i-1))&c.mshrMask]
		cur := c.mshr[(c.mshrHead+uint(i))&c.mshrMask]
		if prev > cur {
			t.Fatalf("MSHR ring out of order at %d: %d before %d", i, prev, cur)
		}
	}
}

// mshrHeadReady returns the completion cycle at the head of the ring
// (the earliest in-flight fill), or 0 when the ring is empty.
func mshrHeadReady(c *Core) uint64 {
	if c.mshrN == 0 {
		return 0
	}
	return c.mshr[c.mshrHead&c.mshrMask]
}

// TestMSHROutOfOrderCompletion interleaves the three fill classes so
// that later pushes complete first — a DRAM fill (200), then an LLC
// fill (50), then an L2 fill (14) — and follows the ring through
// drop-when-full and admit-after-drain.
func TestMSHROutOfOrderCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 3
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const inL2, inLLC, inDRAM, extra = 0x100000, 0x200000, 0x300000, 0x400000
	// inL2: read it, then push it out of L1 with a set's worth of
	// conflicting lines (same L1 set, different L2 sets).
	c.Read(inL2, 8)
	stride := uint64(cfg.L1.Sets() * LineBytes)
	for i := uint64(1); i <= uint64(cfg.L1.Ways); i++ {
		c.Read(inL2+i*stride, 8)
	}
	c.DMAFill(inLLC, 8)
	if c.ResidentL1(inL2, 1) || c.l2.find(inL2>>lineShift) < 0 || c.llc.find(inLLC>>lineShift) < 0 {
		t.Fatal("setup: lines are not where the test needs them")
	}

	issue := cfg.PrefetchIssueCost
	t0 := c.Now()
	c.PrefetchLine(inDRAM)
	c.PrefetchLine(inLLC)
	c.PrefetchLine(inL2)
	readyDRAM := t0 + issue + cfg.DRAMLatency
	readyLLC := t0 + 2*issue + cfg.LLC.HitLatency
	readyL2 := t0 + 3*issue + cfg.L2.HitLatency
	checkMSHRRing(t, c)
	if got := mshrHeadReady(c); got != readyL2 {
		t.Fatalf("ring head = %d, want the L2 fill's %d (pushed last)", got, readyL2)
	}

	// Full: a fourth prefetch drops.
	c.PrefetchLine(extra)
	if ctr := c.Counters(); ctr.PrefetchIssued != 3 || ctr.PrefetchDropped != 1 {
		t.Fatalf("full ring: issued %d dropped %d, want 3 and 1", ctr.PrefetchIssued, ctr.PrefetchDropped)
	}
	// Past the L2 fill only: exactly one MSHR frees, the next prefetch is
	// admitted, and the LLC fill is now the earliest.
	c.Stall(readyL2 - c.Now())
	c.PrefetchLine(extra)
	checkMSHRRing(t, c)
	if ctr := c.Counters(); ctr.PrefetchIssued != 4 || ctr.PrefetchDropped != 1 {
		t.Fatalf("after one drain: issued %d dropped %d, want 4 and 1", ctr.PrefetchIssued, ctr.PrefetchDropped)
	}
	if got := mshrHeadReady(c); got != readyLLC {
		t.Fatalf("ring head = %d, want the LLC fill's %d", got, readyLLC)
	}
	// Past everything: the next admission drains the rest.
	c.Stall(readyDRAM + cfg.DRAMLatency)
	c.PrefetchLine(extra + 0x1000)
	if c.mshrN != 1 {
		t.Fatalf("after full drain: %d fills in flight, want 1", c.mshrN)
	}
}

// TestMSHREqualReadyCycles issues fills that complete on the same
// cycle (zero issue cost); they all retire together.
func TestMSHREqualReadyCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 4
	cfg.PrefetchIssueCost = 0
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		c.PrefetchLine(0x100000 + i*0x1000)
	}
	checkMSHRRing(t, c)
	if c.mshrN != 4 || mshrHeadReady(c) != cfg.DRAMLatency {
		t.Fatalf("in flight %d earliest %d, want 4 and %d", c.mshrN, mshrHeadReady(c), cfg.DRAMLatency)
	}
	c.PrefetchLine(0x200000)
	c.Stall(cfg.DRAMLatency)
	c.PrefetchLine(0x200000)
	if ctr := c.Counters(); ctr.PrefetchIssued != 5 || ctr.PrefetchDropped != 1 || c.mshrN != 1 {
		t.Fatalf("issued %d dropped %d in flight %d, want 5, 1 and 1", ctr.PrefetchIssued, ctr.PrefetchDropped, c.mshrN)
	}
}

// TestMSHRRingWrapAndReset cycles a non-power-of-two MSHR count through
// many times its ring capacity with mixed fill latencies and irregular
// drains, checking the ring invariant at every step, then resets with
// fills in flight: the ring must come back empty and admit a full
// complement again. MSHRs = 1 runs the same stream through the
// one-entry ring.
func TestMSHRRingWrapAndReset(t *testing.T) {
	for _, mshrs := range []int{1, 5, 12} {
		cfg := DefaultConfig()
		cfg.MSHRs = mshrs
		c, err := NewCore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(mshrs)))
		for i := 0; i < 20000; i++ {
			// Recently prefetched lines fall out of L1 quickly (one hot L1
			// set) but stay in L2/LLC, so re-prefetching them mixes 14-
			// and 50-cycle fills in with the 200-cycle ones.
			line := uint64(rng.Intn(4000))
			c.PrefetchLine(line * uint64(cfg.L1.Sets()) * LineBytes)
			if rng.Intn(3) == 0 {
				c.Stall(uint64(rng.Intn(120)))
			}
			checkMSHRRing(t, c)
		}
		ctr := c.Counters()
		if ctr.PrefetchIssued < uint64(16*len(c.mshr)) || ctr.PrefetchDropped == 0 {
			t.Fatalf("MSHRs=%d: stream too tame: %d issued, %d dropped", mshrs, ctr.PrefetchIssued, ctr.PrefetchDropped)
		}
		if c.mshrHead <= c.mshrMask {
			t.Fatalf("MSHRs=%d: ring head %d never wrapped", mshrs, c.mshrHead)
		}

		c.Stall(2 * cfg.DRAMLatency)
		c.PrefetchLine(1 << 40) // drains everything, leaves one fill in flight
		c.Reset()
		if c.mshrN != 0 || mshrHeadReady(c) != 0 {
			t.Fatalf("MSHRs=%d: Reset left %d fills in flight (earliest %d)", mshrs, c.mshrN, mshrHeadReady(c))
		}
		for i := 0; i <= mshrs; i++ {
			c.PrefetchLine(uint64(i+1) << 20)
		}
		checkMSHRRing(t, c)
		if ctr := c.Counters(); ctr.PrefetchIssued != uint64(mshrs) || ctr.PrefetchDropped != 1 {
			t.Fatalf("MSHRs=%d after Reset: issued %d dropped %d, want %d and 1", mshrs, ctr.PrefetchIssued, ctr.PrefetchDropped, mshrs)
		}
	}
}
