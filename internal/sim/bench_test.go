package sim

import (
	"math/rand"
	"testing"
)

// Host-side microbenchmarks for the simulator's hot kernels. These
// measure *host* nanoseconds, not simulated cycles: the simulator's
// answers are fixed by construction (see golden tests), so the only
// thing allowed to change here is how fast the host computes them.

// benchCore returns a fresh default core, failing the benchmark on
// config errors.
func benchCore(b *testing.B) *Core {
	b.Helper()
	c, err := NewCore(DefaultConfig())
	if err != nil {
		b.Fatalf("NewCore: %v", err)
	}
	return c
}

// BenchmarkCacheLookup measures the raw lookup kernel on warm lines:
// the single most executed operation in the simulator, one verified
// way hint.
func BenchmarkCacheLookup(b *testing.B) {
	c := newCache(DefaultConfig().L1, l1HintBits)
	// Fill a handful of sets so lookups traverse realistic occupancy.
	lines := make([]uint64, 64)
	for i := range lines {
		lines[i] = uint64(i)
		_, v := c.probe(lines[i])
		c.fill(v, lines[i], uint64(i))
		c.setHint(lines[i], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var slot int
	for i := 0; i < b.N; i++ {
		slot = c.find(lines[i&63])
	}
	if slot < 0 {
		b.Fatal("warm line missed")
	}
}

// BenchmarkSetScan measures one set scan on its own: a miss in a full
// 16-way set (the L2/LLC shape) followed by the LRU victim choice — a
// probe with no hint to save it — over random sets of a 1024-set
// level, through the AVX2 kernel and through the scalar loops.
func BenchmarkSetScan(b *testing.B) {
	const ways, sets = 16, 1024
	for _, tc := range []struct {
		name string
		vec  bool
	}{{"vector", true}, {"scalar", false}} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.vec && !hostAVX2 {
				b.Skip("host has no AVX2")
			}
			c := newCache(CacheConfig{Name: "t", SizeBytes: sets * ways * LineBytes, Ways: ways}, 0)
			c.vec = tc.vec
			rng := rand.New(rand.NewSource(1))
			for s := range c.tags { // way w of every set holds line w*sets+set
				c.tags[s] = uint32(s%ways)<<1 | 1
				c.stamps[s] = rng.Uint64()
			}
			misses := make([]uint64, 4096) // lines ways*sets and up: all absent
			for i := range misses {
				misses[i] = uint64(ways+rng.Intn(1<<20))*sets + uint64(rng.Intn(sets))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var victim int
			for i := 0; i < b.N; i++ {
				_, victim = c.probe(misses[i&4095])
			}
			if victim < 0 {
				b.Fatal("full-set miss chose no victim")
			}
		})
	}
}

// BenchmarkCoreReadHit measures a demand read that always hits L1 —
// the steady-state fast path of every state access.
func BenchmarkCoreReadHit(b *testing.B) {
	c := benchCore(b)
	const addr = 1 << 20
	c.Read(addr, 8) // warm the line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(addr, 8)
	}
}

// BenchmarkCoreReadMiss measures demand reads over a footprint far
// beyond the LLC, so (almost) every access walks the full miss path:
// three tag scans plus three installs.
func BenchmarkCoreReadMiss(b *testing.B) {
	c := benchCore(b)
	span := uint64(64 << 20) // 64 MiB >> 2 MiB LLC
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 8 * LineBytes) % span
		c.Read(addr, 8)
	}
}

// BenchmarkHierarchyMiss measures demand reads that miss L1 and
// resolve at each deeper level in turn. Cyclic sweeps over footprints
// wedged between level capacities guarantee the resolution level: a
// cyclic LRU sweep larger than a level always misses it, and one
// smaller than the next level always hits there once warm.
func BenchmarkHierarchyMiss(b *testing.B) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name  string
		lines uint64
	}{
		// L1 512 lines, L2 16384, LLC 32768 with the default config.
		{"HitL2", uint64(cfg.L1.SizeBytes/LineBytes) * 8},
		{"HitLLC", uint64(cfg.L2.SizeBytes/LineBytes) * 3 / 2},
		{"DRAM", uint64(cfg.LLC.SizeBytes/LineBytes) * 32},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := benchCore(b)
			for i := uint64(0); i < tc.lines; i++ { // warm the target level
				c.Read(i*LineBytes, 8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Read((uint64(i)%tc.lines)*LineBytes, 8)
			}
			b.StopTimer()
			ctr := c.Counters()
			if ctr.L1Hits > ctr.L1Misses/8 {
				b.Fatalf("sweep not missing L1: %d hits vs %d misses", ctr.L1Hits, ctr.L1Misses)
			}
		})
	}
}

// BenchmarkMSHRPressure measures a prefetch storm at the MSHR limit:
// distinct never-resident lines issued back to back, so the admission
// check runs every time, the MSHRs saturate, fills retire in bursts as
// the issue cost advances the clock past the ring's head, and the
// sorted ring cycles continuously between drops and re-admissions.
func BenchmarkMSHRPressure(b *testing.B) {
	c := benchCore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PrefetchLine(uint64(i) * 64 * LineBytes) // distinct sets, never resident
	}
	b.StopTimer()
	ctr := c.Counters()
	if b.N > 1000 && (ctr.PrefetchDropped == 0 || ctr.PrefetchIssued == 0) {
		b.Fatalf("storm not at the limit: %d issued, %d dropped", ctr.PrefetchIssued, ctr.PrefetchDropped)
	}
}

// BenchmarkPrefetchLine measures the prefetch issue path, including
// the MSHR occupancy check, with periodic stalls so fills retire and
// the MSHR list cycles through fill and drain.
func BenchmarkPrefetchLine(b *testing.B) {
	c := benchCore(b)
	mshrs := c.cfg.MSHRs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 64 * LineBytes // distinct sets, never resident
		c.Prefetch(addr, 8)
		if i%mshrs == mshrs-1 {
			c.Stall(c.cfg.DRAMLatency) // retire outstanding fills
		}
	}
}

// BenchmarkEnsureFetchedMiss measures the scheduler's P-stage visit on
// its DRAM path: a 4-line fetch plan that is never resident, over sets
// that are full at every level (a warm-up pass larger than the LLC runs
// first), so the visit's L1 probe and each fill's L2 and LLC probes all
// miss a full set and choose an LRU victim. Periodic stalls retire the
// fills, as in BenchmarkPrefetchLine, so the lines issue rather than
// drop.
func BenchmarkEnsureFetchedMiss(b *testing.B) {
	c := benchCore(b)
	var bases [8]uint64
	ops := make([]FetchOp, 4)
	for i := range ops {
		ops[i] = FetchOp{Off: uint64(i) * LineBytes, Size: LineBytes, Line: true}
	}
	warm := 2 * c.cfg.LLC.SizeBytes / (len(ops) * LineBytes)
	visit := func(i int) {
		bases[0] = 1<<30 + uint64(i)*uint64(len(ops))*LineBytes // fresh lines every visit
		if c.EnsureFetched(&bases, ops) {
			b.Fatal("never-resident plan reported resident")
		}
		if i%3 == 2 {
			c.Stall(c.cfg.DRAMLatency) // retire outstanding fills
		}
	}
	for i := 0; i < warm; i++ {
		visit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visit(warm + i)
	}
}

// BenchmarkCoreReset measures one pooled-core cycle: a 4096-line warm
// pass (8x the L1, so every level holds live state) followed by the
// Reset's tag memsets. Contrast with
// BenchmarkNewCore, the per-point construction cost pooling avoids.
func BenchmarkCoreReset(b *testing.B) {
	c := benchCore(b)
	const lines = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint64(0); l < lines; l++ {
			c.Read(l*LineBytes, 8)
		}
		c.Reset()
	}
}

// BenchmarkNewCore measures building a default core from scratch — the
// allocation and zeroing a pooled, Reset core does not pay.
func BenchmarkNewCore(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCore(cfg); err != nil {
			b.Fatalf("NewCore: %v", err)
		}
	}
}

// BenchmarkResidentL1 measures the P-state verification probe on a
// resident single-line span (the dominant case: spans are <= 64 B).
func BenchmarkResidentL1(b *testing.B) {
	c := benchCore(b)
	const addr = 1 << 20
	c.Read(addr, 8)
	b.ReportAllocs()
	b.ResetTimer()
	ok := true
	for i := 0; i < b.N; i++ {
		ok = c.ResidentL1(addr, 8) && ok
	}
	if !ok {
		b.Fatal("warm line not resident")
	}
}

// BenchmarkResidentCheck measures the compiled-plan P-state probe: an
// EnsureFetched visit to a fully resident fetch plan, the question the
// interleaved scheduler asks before every action.
func BenchmarkResidentCheck(b *testing.B) {
	c := benchCore(b)
	var bases [8]uint64
	ops := make([]FetchOp, 4)
	for i := range ops {
		addr := uint64(1<<20) + uint64(i)*LineBytes
		c.Read(addr, 8)
		ops[i] = FetchOp{Off: addr, Size: LineBytes, Line: true}
	}
	b.ReportAllocs()
	b.ResetTimer()
	resident := true
	for i := 0; i < b.N; i++ {
		resident = c.EnsureFetched(&bases, ops) && resident
	}
	if !resident {
		b.Fatal("warm plan reported not resident")
	}
}
