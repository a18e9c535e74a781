package sim

import (
	"runtime"
	"sync"
	"testing"
)

// TestCorePoolRecycles pins the pool mechanics: Put then Get returns
// the same core, detached from its observation hooks and reset, and
// Stats counts construction vs. reuse.
func TestCorePoolRecycles(t *testing.T) {
	p := NewCorePool(DefaultConfig())
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	c1.SetTracer(countingTracer{})
	c1.SetAccessLog(func(MemAccess) {})
	c1.Read(0x4000, 64)
	p.Put(c1)

	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("Get after Put did not recycle the pooled core")
	}
	if c2.trc != nil || c2.alog != nil {
		t.Fatal("recycled core kept observation hooks")
	}
	if c2.Now() != 0 || c2.Counters() != (Counters{}) {
		t.Fatalf("recycled core not reset: clock %d, counters %+v", c2.Now(), c2.Counters())
	}
	if news, reuses := p.Stats(); news != 1 || reuses != 1 {
		t.Fatalf("Stats = (%d, %d), want (1, 1)", news, reuses)
	}
	p.Put(c2)
	p.Put(nil) // must be a no-op
}

// countingTracer is a minimal Tracer for attachment tests.
type countingTracer struct{}

func (countingTracer) Event(TraceEvent) {}

// TestCorePoolRecycledEquivalence runs a polluting workload on a pooled
// core, recycles it, and replays a fresh stream against a brand-new
// core in lockstep — the pooled path must be observationally identical.
func TestCorePoolRecycledEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	p := NewCorePool(cfg)
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range genOps(111, 6000) {
		apply(c, op)
	}
	p.Put(c)
	recycled, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, "pooled", recycled, fresh, genOps(222, 20000))
}

// TestCorePoolConcurrent hammers Get/Put from parallel goroutines (the
// sweep-runner usage pattern) so the race detector can see the pool's
// locking; each checked-out core does a little real work.
func TestCorePoolConcurrent(t *testing.T) {
	p := NewCorePool(DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get()
				if err != nil {
					t.Error(err)
					return
				}
				for l := uint64(0); l < 64; l++ {
					c.Read((uint64(g)<<20)+l*LineBytes, 8)
				}
				p.Put(c)
			}
		}(g)
	}
	wg.Wait()
	news, reuses := p.Stats()
	if news+reuses != 8*50 {
		t.Fatalf("Stats = (%d, %d), want %d total", news, reuses, 8*50)
	}
	if reuses == 0 {
		t.Fatal("pool never recycled a core")
	}
}

// TestCoreHostBytes holds a default core's host footprint, which every
// workload pays once per live core (a pool keeps one per concurrent
// sweep point): NewCore must retain at most 680,000 bytes of Go heap
// and allocate at most 690,000. The bulk is the 48 Ki outer-level
// slots at 13 bytes each — a compact tag, an LRU stamp and a pending
// flag — 624 KiB; the L1's slots and hint table add about 15 KiB. An 8-byte ready word per outer slot would add 384 KiB.
func TestCoreHostBytes(t *testing.T) {
	const retainLimit, allocLimit = 680_000, 690_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("NewCore retains %d B of Go heap, allocates %d B", retained, allocated)
	if retained > retainLimit {
		t.Errorf("NewCore retains %d B, want <= %d", retained, retainLimit)
	}
	if allocated > allocLimit {
		t.Errorf("NewCore allocates %d B, want <= %d", allocated, allocLimit)
	}
}
