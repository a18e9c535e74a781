package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func mustCore(t *testing.T) *Core {
	t.Helper()
	c, err := NewCore(testConfig())
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	return c
}

// TestConfigValidate enumerates every invalid-config error path with a
// substring the error must carry, so a guard cannot silently rot into a
// different (or no) rejection. An empty want accepts the config.
func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"default ok", func(*Config) {}, ""},
		{"zero size", func(c *Config) { c.L1.SizeBytes = 0 }, "size and ways must be positive"},
		{"negative size", func(c *Config) { c.L2.SizeBytes = -4096 }, "size and ways must be positive"},
		{"zero ways", func(c *Config) { c.LLC.Ways = 0 }, "size and ways must be positive"},
		{"negative ways", func(c *Config) { c.L1.Ways = -2 }, "size and ways must be positive"},
		{"non pow2 sets", func(c *Config) { c.L1.SizeBytes = 24 << 10 }, "not a power of two"},
		{"non pow2 sets L2", func(c *Config) { c.L2.SizeBytes = 3 << 20 }, "not a power of two"},
		{"size not line multiple", func(c *Config) { c.L1.SizeBytes = 1000 }, "not a multiple of ways*line"},
		{"size not way multiple", func(c *Config) { c.LLC.SizeBytes = 2<<20 + 64 }, "not a multiple of ways*line"},
		{"zero dram", func(c *Config) { c.DRAMLatency = 0 }, "DRAM latency must be positive"},
		{"zero mshr", func(c *Config) { c.MSHRs = 0 }, "MSHR count must be positive"},
		{"negative mshr", func(c *Config) { c.MSHRs = -1 }, "MSHR count must be positive"},
		{"zero width", func(c *Config) { c.IssueWidth = 0 }, "issue width must be positive"},
		{"zero freq", func(c *Config) { c.FreqHz = 0 }, "frequency must be positive"},
		{"negative freq", func(c *Config) { c.FreqHz = -1 }, "frequency must be positive"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tt.want)
			}
			if _, err := NewCore(cfg); err == nil {
				t.Fatal("NewCore accepted the invalid config")
			}
		})
	}
}

func TestCacheConfigSets(t *testing.T) {
	cfg := CacheConfig{Name: "t", SizeBytes: 32 << 10, Ways: 8}
	if got, want := cfg.Sets(), 64; got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
}

func TestColdReadHitsDRAMThenL1(t *testing.T) {
	c := mustCore(t)
	cfg := c.Config()

	c.Read(0x1000, 8)
	ctr := c.Counters()
	if ctr.LLCMisses != 1 {
		t.Fatalf("cold read LLCMisses = %d, want 1", ctr.LLCMisses)
	}
	if ctr.Cycles < cfg.DRAMLatency {
		t.Fatalf("cold read cycles = %d, want >= %d", ctr.Cycles, cfg.DRAMLatency)
	}

	before := c.Now()
	c.Read(0x1000, 8)
	ctr = c.Counters()
	if ctr.L1Hits != 1 {
		t.Fatalf("second read L1Hits = %d, want 1", ctr.L1Hits)
	}
	if got := c.Now() - before; got != cfg.L1.HitLatency {
		t.Fatalf("second read cost = %d cycles, want %d", got, cfg.L1.HitLatency)
	}
}

func TestWriteCountsSeparately(t *testing.T) {
	c := mustCore(t)
	c.Write(0x40, 4)
	ctr := c.Counters()
	if ctr.Writes != 1 || ctr.Reads != 0 {
		t.Fatalf("Writes=%d Reads=%d, want 1/0", ctr.Writes, ctr.Reads)
	}
}

func TestL1Eviction(t *testing.T) {
	c := mustCore(t)
	cfg := c.Config()
	// Fill one L1 set beyond its associativity: lines mapping to set 0
	// are spaced by sets*LineBytes.
	stride := uint64(cfg.L1.Sets() * LineBytes)
	for i := 0; i <= cfg.L1.Ways; i++ {
		c.Read(uint64(i)*stride, 1)
	}
	// The first line must have been evicted from L1 (though it may still
	// sit in L2).
	base := c.Counters()
	c.Read(0, 1)
	d := c.Counters().Sub(base)
	if d.L1Misses != 1 {
		t.Fatalf("re-read after eviction: L1Misses = %d, want 1", d.L1Misses)
	}
	if d.L2Hits != 1 {
		t.Fatalf("re-read should hit L2, got %+v", d)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	c := mustCore(t)
	cfg := c.Config()

	c.Prefetch(0x2000, 8)
	// Simulate doing other work long enough for the fill to complete.
	c.Compute(2 * cfg.DRAMLatency * cfg.IssueWidth)

	before := c.Now()
	c.Read(0x2000, 8)
	cost := c.Now() - before
	if cost != cfg.L1.HitLatency {
		t.Fatalf("post-prefetch read cost = %d, want L1 hit %d", cost, cfg.L1.HitLatency)
	}
	ctr := c.Counters()
	if ctr.PrefetchIssued != 1 || ctr.PrefetchUseful != 1 {
		t.Fatalf("prefetch counters = %+v, want issued=1 useful=1", ctr)
	}
}

func TestPrefetchLateStallsForRemainder(t *testing.T) {
	c := mustCore(t)
	cfg := c.Config()

	c.Prefetch(0x3000, 8)
	issued := c.Now()
	// Access immediately: must stall until issued-cost + DRAM fill done.
	c.Read(0x3000, 8)
	ctr := c.Counters()
	if ctr.PrefetchLate != 1 {
		t.Fatalf("PrefetchLate = %d, want 1", ctr.PrefetchLate)
	}
	want := issued + cfg.DRAMLatency + cfg.L1.HitLatency
	if c.Now() != want {
		t.Fatalf("clock after late access = %d, want %d", c.Now(), want)
	}
}

// TestPrefetchLateOuterHit follows a DRAM prefetch whose line leaves the
// L1 before its fill completes. The demand read that finds it in L2
// stalls for exactly the rest of the fill, counted once as late, and the
// hit leaves the line ready: a second trip through L2, well within
// DRAMLatency of the first, costs the L2 hit latency alone. The lines
// that push x out of the L1 share its L1 set but not its L2 set, so x
// stays in L2 throughout.
func TestPrefetchLateOuterHit(t *testing.T) {
	oneMSHR := DefaultConfig()
	oneMSHR.MSHRs = 1
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "mshrs=1": oneMSHR} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ways := cfg.L1.Ways
			if cfg.L2.Sets() < (ways+2)*cfg.L1.Sets() {
				t.Fatal("config: the conflicting lines would share L2 sets")
			}
			at := func(k int) uint64 { return 0x100000 + uint64(k*cfg.L1.Sets()*LineBytes) }
			x := at(ways + 1)
			// evictX refreshes every other line resident in x's L1 set, so
			// x is the LRU way, then reads one the set does not hold (it is
			// in L2), which takes x's way.
			evictX := func() {
				for k := 0; k <= ways; k++ {
					if c.ResidentL1(at(k), 1) {
						c.Read(at(k), 8)
					}
				}
				for k := 0; k <= ways; k++ {
					if !c.ResidentL1(at(k), 1) {
						c.Read(at(k), 8)
						break
					}
				}
				if c.ResidentL1(x, 1) || c.l2.find(x>>lineShift) < 0 {
					t.Fatal("setup: x is not in L2 alone")
				}
			}
			for k := 0; k <= ways; k++ { // the set's ways+1 lines: at(0) falls out to L2
				c.Read(at(k), 8)
			}
			t0 := c.Now()
			c.PrefetchLine(x)
			due := t0 + cfg.PrefetchIssueCost + cfg.DRAMLatency
			evictX()
			before, early := c.Counters(), c.Now()
			if early >= due {
				t.Fatalf("setup: x read at cycle %d, after its fill completed at %d", early, due)
			}
			c.Read(x, 8)
			d := c.Counters().Sub(before)
			if d.L2Hits != 1 || d.PrefetchLate != 1 || d.StallCycles != due-early+cfg.L2.HitLatency {
				t.Fatalf("early read: L2 hits %d, late %d, stall %d; want 1, 1, %d",
					d.L2Hits, d.PrefetchLate, d.StallCycles, due-early+cfg.L2.HitLatency)
			}
			if got, want := c.Now(), due+cfg.L2.HitLatency; got != want {
				t.Fatalf("clock after the early read = %d, want the fill's %d plus the L2 hit", got, want)
			}

			hit := c.Now()
			evictX()
			before, again := c.Counters(), c.Now()
			if again >= hit+cfg.DRAMLatency {
				t.Fatalf("setup: x read again at cycle %d, DRAMLatency after the hit at %d", again, hit)
			}
			c.Read(x, 8)
			d = c.Counters().Sub(before)
			if d.L2Hits != 1 || d.PrefetchLate != 0 || d.StallCycles != cfg.L2.HitLatency {
				t.Fatalf("second read: L2 hits %d, late %d, stall %d; want 1, 0, %d",
					d.L2Hits, d.PrefetchLate, d.StallCycles, cfg.L2.HitLatency)
			}
		})
	}
}

func TestPrefetchRedundant(t *testing.T) {
	c := mustCore(t)
	c.Read(0x4000, 8)
	c.Prefetch(0x4000, 8)
	if ctr := c.Counters(); ctr.PrefetchRedundant != 1 {
		t.Fatalf("PrefetchRedundant = %d, want 1", ctr.PrefetchRedundant)
	}
}

func TestMSHRLimitDropsPrefetches(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Prefetch(uint64(0x10000+i*4096), 1)
	}
	ctr := c.Counters()
	// Issue cost advances the clock slightly but far less than the DRAM
	// fill latency, so at most MSHRs fills can be live.
	if ctr.PrefetchIssued != 2 {
		t.Fatalf("PrefetchIssued = %d, want 2", ctr.PrefetchIssued)
	}
	if ctr.PrefetchDropped != 3 {
		t.Fatalf("PrefetchDropped = %d, want 3", ctr.PrefetchDropped)
	}
}

func TestMSHRsFreeAfterFill(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 1
	c, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Prefetch(0x10000, 1)
	c.Compute(cfg.DRAMLatency * cfg.IssueWidth * 2)
	c.Prefetch(0x20000, 1)
	if ctr := c.Counters(); ctr.PrefetchIssued != 2 || ctr.PrefetchDropped != 0 {
		t.Fatalf("counters = %+v, want 2 issued 0 dropped", ctr)
	}
}

func TestBurstGapCheaperThanSeparateReads(t *testing.T) {
	c1 := mustCore(t)
	c1.Read(0x8000, 8*LineBytes) // one 8-line burst
	burst := c1.Now()

	c2 := mustCore(t)
	for i := 0; i < 8; i++ {
		c2.Read(uint64(0x8000+i*LineBytes), 1) // 8 separate accesses
	}
	separate := c2.Now()

	if burst >= separate {
		t.Fatalf("burst read (%d cycles) should be cheaper than separate reads (%d)", burst, separate)
	}
}

func TestComputeChargesByIssueWidth(t *testing.T) {
	c := mustCore(t)
	cfg := c.Config()
	c.Compute(10)
	want := (10 + cfg.IssueWidth - 1) / cfg.IssueWidth
	if c.Now() != want {
		t.Fatalf("Compute(10) advanced %d cycles, want %d", c.Now(), want)
	}
	if ctr := c.Counters(); ctr.Instructions != 10 {
		t.Fatalf("Instructions = %d, want 10", ctr.Instructions)
	}
}

func TestTaskSwitchCost(t *testing.T) {
	c := mustCore(t)
	c.TaskSwitch()
	if c.Now() != c.Config().SwitchCost {
		t.Fatalf("TaskSwitch cost = %d, want %d", c.Now(), c.Config().SwitchCost)
	}
	if ctr := c.Counters(); ctr.TaskSwitches != 1 {
		t.Fatalf("TaskSwitches = %d, want 1", ctr.TaskSwitches)
	}
}

func TestResidentL1(t *testing.T) {
	c := mustCore(t)
	if c.ResidentL1(0x9000, 64) {
		t.Fatal("cold line reported resident")
	}
	c.Read(0x9000, 64)
	if !c.ResidentL1(0x9000, 64) {
		t.Fatal("read line not resident")
	}
	if !c.ResidentL1(0x9000, 0) {
		t.Fatal("zero-size range must be trivially resident")
	}
}

func TestReset(t *testing.T) {
	c := mustCore(t)
	c.Read(0xA000, 128)
	c.Prefetch(0xB000, 64)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("clock after Reset = %d", c.Now())
	}
	if ctr := c.Counters(); ctr != (Counters{}) {
		t.Fatalf("counters after Reset = %+v", ctr)
	}
	base := c.Counters()
	c.Read(0xA000, 1)
	if d := c.Counters().Sub(base); d.LLCMisses != 1 {
		t.Fatalf("post-Reset read should be cold, got %+v", d)
	}
}

func TestCountersSubAndRates(t *testing.T) {
	a := Counters{Cycles: 100, Instructions: 150, L1Hits: 9, L1Misses: 1, L2Hits: 1}
	b := Counters{Cycles: 40, Instructions: 50, L1Hits: 4, L1Misses: 1}
	d := a.Sub(b)
	if d.Cycles != 60 || d.Instructions != 100 || d.L1Hits != 5 {
		t.Fatalf("Sub = %+v", d)
	}
	if got := a.IPC(); got != 1.5 {
		t.Fatalf("IPC = %v, want 1.5", got)
	}
	if got := a.L1HitRate(); got != 0.9 {
		t.Fatalf("L1HitRate = %v, want 0.9", got)
	}
	if (Counters{}).IPC() != 0 || (Counters{}).L1HitRate() != 0 || (Counters{}).L2HitRate() != 0 {
		t.Fatal("zero counters must report zero rates")
	}
	if len(a.String()) == 0 {
		t.Fatal("String() empty")
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	c := mustCore(t)
	c.Read(0x100, 0)
	c.Write(0x100, 0)
	c.Prefetch(0x100, 0)
	if c.Now() != 0 {
		t.Fatalf("zero-size ops advanced clock to %d", c.Now())
	}
}

// Property: for any access pattern, hits+misses == total accesses, the
// clock is monotone, and a repeated access is never slower than cold.
func TestAccessAccountingProperty(t *testing.T) {
	c := mustCore(t)
	prop := func(addrs []uint16, sizes []uint8) bool {
		before := c.Now()
		var n uint64
		for i, a := range addrs {
			size := uint64(1)
			if i < len(sizes) {
				size = uint64(sizes[i]%64) + 1
			}
			addr := uint64(a) * 8
			first := addr >> lineShift
			last := (addr + size - 1) >> lineShift
			n += last - first + 1
			c.Read(addr, size)
		}
		ctr := c.Counters()
		if ctr.L1Hits+ctr.L1Misses != ctr.Reads+ctr.Writes {
			return false
		}
		if ctr.L2Hits+ctr.L2Misses != ctr.L1Misses {
			return false
		}
		if ctr.LLCHits+ctr.LLCMisses != ctr.L2Misses {
			return false
		}
		return c.Now() >= before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: prefetching then waiting never makes a subsequent read slower
// than the same read without prefetching.
func TestPrefetchNeverHurtsLatencyProperty(t *testing.T) {
	cfg := testConfig()
	prop := func(a uint16) bool {
		addr := uint64(a) * LineBytes
		cold, err := NewCore(cfg)
		if err != nil {
			return false
		}
		cold.Read(addr, 8)
		coldCost := cold.Now()

		warm, err := NewCore(cfg)
		if err != nil {
			return false
		}
		warm.Prefetch(addr, 8)
		warm.Compute(cfg.DRAMLatency * cfg.IssueWidth)
		before := warm.Now()
		warm.Read(addr, 8)
		warmCost := warm.Now() - before
		return warmCost <= coldCost
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
