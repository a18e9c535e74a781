package sim

import (
	"sync"
	"sync/atomic"
)

// CorePool recycles Cores of one configuration across experiment runs.
// A Core's backing arrays are most of a megabyte (the outer levels'
// tag, stamp and pending arrays: 13 bytes a slot, about 640 KB in the
// default hierarchy), so sweeps that run hundreds of points used to
// allocate and fault that footprint per point. With the pool each
// worker grabs a reset core instead: Reset is three tag memsets (see
// Core.Reset), and the reset-vs-fresh differential tests guarantee a
// pooled core is observationally indistinguishable from a new one.
//
// An exp run takes every single-core sweep point's core from one pool
// of its configuration; the ablation points that change the
// configuration (MSHRs, switch cost) each get a pool of their own, so
// only the default-config points recycle. Fig14 and Fig15 run their
// cores concurrently on rt.Engine, whose pool is per engine, and attach
// no tracer.
//
// The pool itself is safe for concurrent Get/Put (the parallel sweep
// runner's workers share one), but each checked-out Core remains
// single-goroutine, as always.
type CorePool struct {
	cfg  Config
	mu   sync.Mutex
	free []*Core

	// news and reuses count Get calls served by construction vs. by
	// recycling; sweep tests assert the pool actually pools.
	news   atomic.Int64
	reuses atomic.Int64
}

// NewCorePool returns an empty pool producing Cores of cfg. The config
// is validated lazily by the first Get, exactly as NewCore would.
func NewCorePool(cfg Config) *CorePool {
	return &CorePool{cfg: cfg}
}

// Config returns the configuration the pool's Cores are built with.
func (p *CorePool) Config() Config { return p.cfg }

// Get returns a reset Core, recycling a pooled one when available.
func (p *CorePool) Get() (*Core, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		return c, nil
	}
	p.mu.Unlock()
	p.news.Add(1)
	return NewCore(p.cfg)
}

// Put resets c and returns it to the pool. Observation hooks (tracer,
// access log) are detached first — SetTracer(nil) delivers whatever the
// run left buffered — because they are per-run attachments, and a
// recycled core must come back as bare as a new one.
func (p *CorePool) Put(c *Core) {
	if c == nil {
		return
	}
	c.SetTracer(nil)
	c.SetAccessLog(nil)
	c.Reset()
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// Stats reports how many Gets were served by construction and by reuse.
func (p *CorePool) Stats() (news, reuses int64) {
	return p.news.Load(), p.reuses.Load()
}
