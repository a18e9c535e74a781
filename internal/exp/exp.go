// Package exp contains the experiment harness: one runner per figure
// of the paper's evaluation (§II and §VII), each regenerating the
// figure's series as a text table, plus ablation studies over the
// design knobs DESIGN.md calls out.
//
// Every single-core sweep point is one call, Options.run: build the
// deployable in a fresh address space — NAT and UPF through
// deploy.DefaultRegistry()'s factories, the SFC through
// deploy.NewSFC, the same constructors agents and gunfu-bench use —
// and run it on a core from the run's sim.CorePool, traced when
// Options.Tracer is set. The multi-core figures (14, 15) are one
// renderer over one rt.Engine runner.
//
// Runners come in two sizes: the full populations of the paper (the
// defaults) and a Quick mode with reduced populations for CI and
// development. The shapes — who wins, by what factor, where the curves
// turn — hold in both. The seed-42 Quick tables are checked in under
// testdata/quick.
package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks populations and windows for fast runs.
	Quick bool
	// Seed makes workloads deterministic.
	Seed int64
	// Out receives rendered tables; nil discards them.
	Out io.Writer
	// Sim overrides the simulated core configuration.
	Sim *sim.Config
	// Parallel is the number of sweep points a runner may execute
	// concurrently (host goroutines). Sweep points are share-nothing —
	// each builds its own core, address space and seeded generators —
	// so any Parallel value produces byte-identical tables; <=1 means
	// sequential. Fig9 measures host wall-clock and always runs
	// sequentially regardless.
	Parallel int
	// Tracer, when non-nil, is attached to the core of every single-core
	// sweep point the run executes. Tracing is observation-only — tables
	// and counters are byte-identical with or without it — but it
	// serializes sweep points' event streams into one consumer, so
	// combine it with Parallel <= 1 unless the tracer is
	// concurrency-safe. Fig14 and Fig15 run their cores concurrently on
	// rt.Engine and attach no tracer.
	Tracer sim.Tracer

	// pool recycles cores across sweep points (set by Run; in-package
	// tests set their own). A Reset pooled core is observationally
	// identical to a fresh one — the sim package's reset-vs-fresh
	// differential tests pin that — so tables stay byte-identical while a
	// figure run stops allocating a megabyte-scale hierarchy per point.
	pool *sim.CorePool
}

func (o Options) simCfg() sim.Config {
	if o.Sim != nil {
		return *o.Sim
	}
	return sim.DefaultConfig()
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// pick returns full when !Quick, quick otherwise.
func (o Options) pick(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) pickU(full, quick uint64) uint64 {
	if o.Quick {
		return quick
	}
	return full
}

// forEach runs fn(i) for every i in [0, n): sequentially when
// o.Parallel <= 1, otherwise on min(Parallel, n) workers pulling
// indexes from a shared counter. fn must write its output into an
// index-addressed slot so callers can emit rows in sweep order; the
// lowest-index error (if any) is returned either way, keeping error
// selection independent of goroutine timing.
func (o Options) forEach(n int, fn func(i int) error) error {
	workers := o.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Runner regenerates one figure.
type Runner func(o Options) ([]*stats.Table, error)

// Runners maps experiment ids to their runners.
func Runners() map[string]Runner {
	return map[string]Runner{
		"fig2":     Fig2,
		"fig3":     Fig3,
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"fig12":    Fig12,
		"fig13":    Fig13,
		"fig14":    Fig14,
		"fig15":    Fig15,
		"ablation": Ablations,
	}
}

// Names returns the experiment ids in order.
func Names() []string {
	m := Runners()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id and renders its tables to o.Out.
func Run(name string, o Options) ([]*stats.Table, error) {
	r, ok := Runners()[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	o.pool = sim.NewCorePool(o.simCfg())
	tables, err := r(o)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	for _, t := range tables {
		if err := t.Render(o.out()); err != nil {
			return nil, fmt.Errorf("exp: %s: render: %w", name, err)
		}
	}
	return tables, nil
}

// deployable builds one sweep point's program and workload, with state
// drawn from as.
type deployable func(as *mem.AddressSpace) (*model.Program, rt.Source, error)

// deploy is deploy.DefaultRegistry()'s deployable d.NF at 64 B packets
// and the run's seed: the factory call agents and gunfu-bench make.
func (o Options) deploy(d deploy.Spec) deployable {
	d.PacketBytes, d.Seed = 64, o.Seed
	factory := deploy.DefaultRegistry()[d.NF]
	return func(as *mem.AddressSpace) (*model.Program, rt.Source, error) { return factory(as, d) }
}

// sfcPoint is the paper's SFC of the given length over flows flows at 64 B
// packets and the run's seed.
func (o Options) sfcPoint(length, flows int, fused bool, opts compile.SFCOptions) deployable {
	return func(as *mem.AddressSpace) (*model.Program, rt.Source, error) {
		return deploy.NewSFC(as, length, flows, fused, opts, 64, 0, 0, o.Seed)
	}
}

// run is one sweep point: build in a fresh address space, run under cfg
// — rt.ConfigFor(tasks), run-to-completion at 0 — on a core from the
// run's pool with o.Tracer attached, for warmup packets and then the
// measured window, whose result it returns.
func (o Options) run(build deployable, cfg rt.Config, warmup, window uint64) (rt.Result, error) {
	as := mem.NewAddressSpace()
	prog, src, err := build(as)
	if err != nil {
		return rt.Result{}, err
	}
	core, err := o.pool.Get()
	if err != nil {
		return rt.Result{}, err
	}
	defer o.pool.Put(core)
	if o.Tracer != nil {
		core.SetTracer(o.Tracer)
	}
	w, err := rt.NewWorker(core, as, prog, cfg)
	if err != nil {
		return rt.Result{}, err
	}
	if warmup > 0 {
		if _, err := w.Run(src, warmup); err != nil {
			return rt.Result{}, err
		}
	}
	return w.Run(src, window)
}
