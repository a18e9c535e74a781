package rt

import (
	"errors"
	"fmt"
	"sync"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// CoreSetup is everything one engine core needs: a compiled program
// over per-core state (pools, match structures) and a packet source
// carrying that core's share of the flows. Building per-core state is
// the caller's job because it is NF-specific; the share-nothing split
// mirrors the paper's RSS flow steering.
type CoreSetup struct {
	// NewWorker constructs the core's worker (program, pools and source
	// are captured by the closure). It runs on the engine goroutine
	// assigned to this core.
	NewWorker func(core *sim.Core) (*Worker, Source, error)
}

// Engine runs one worker per simulated core in parallel host
// goroutines. Cores share nothing — each has its own cache hierarchy,
// pools and match structures — so scaling is linear by construction,
// matching the paper's multi-core results (Figs 14, 15).
//
// Simulated cores are drawn from a sim.CorePool owned by the engine:
// repeated Run calls recycle reset cores instead of
// allocating and faulting the megabyte-scale cache arrays per call
// (the reset-vs-fresh differential test guarantees a pooled core is
// observationally indistinguishable from a new one).
type Engine struct {
	setups []CoreSetup
	pool   *sim.CorePool
}

// NewEngine builds an engine over the given per-core setups.
func NewEngine(simCfg sim.Config, setups []CoreSetup) (*Engine, error) {
	if len(setups) == 0 {
		return nil, fmt.Errorf("rt: engine needs at least one core")
	}
	return &Engine{setups: setups, pool: sim.NewCorePool(simCfg)}, nil
}

// Run executes all cores, each processing up to perCorePackets, and
// returns per-core results in core order. Every per-core failure is
// reported (joined with errors.Join, each wrapped with its core index)
// — a multi-core failure is never masked by the first core's error.
func (e *Engine) Run(perCorePackets uint64) ([]Result, error) {
	results := make([]Result, len(e.setups))
	errs := make([]error, len(e.setups))
	var wg sync.WaitGroup
	for i := range e.setups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			core, err := e.pool.Get()
			if err != nil {
				errs[i] = err
				return
			}
			defer e.pool.Put(core)
			w, src, err := e.setups[i].NewWorker(core)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = w.Run(src, perCorePackets)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("rt: core %d: %w", i, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// PoolStats reports how many simulated cores the engine's pool built
// versus recycled across Run calls; tests assert the pool pools.
func (e *Engine) PoolStats() (news, reuses int64) {
	return e.pool.Stats()
}

// Aggregate combines per-core results into a fleet view. Since cores
// run concurrently, the aggregate window is the slowest core's cycle
// span and throughput is the sum of per-core rates. FreqHz is taken
// from the core that defines the window (the one with the most
// cycles), so throughput conversion uses the clock the window was
// measured in. Every engine core comes from one sim.CorePool, so all
// share one clock.
func Aggregate(results []Result) Result {
	var agg Result
	for _, r := range results {
		agg.Packets += r.Packets
		agg.AccessCycles += r.AccessCycles
		agg.Counters = agg.Counters.Add(r.Counters)
		if r.Cycles >= agg.Cycles {
			agg.Cycles = r.Cycles
			agg.FreqHz = r.FreqHz
		}
	}
	// Sum of per-core throughputs expressed through the common window:
	// scale bits so Bits/window == Σ bits_i/window_i.
	if agg.Cycles > 0 {
		for _, r := range results {
			if r.Cycles > 0 {
				agg.Bits += r.Bits * float64(agg.Cycles) / float64(r.Cycles)
			}
		}
	}
	return agg
}
