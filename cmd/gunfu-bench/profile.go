package main

import (
	"fmt"
	"io"
	"os"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// profileSpec selects the workload for a -trace/-attr profile run. It
// builds through the deployable registry (deploy.Registry.Build), so
// the profiled NF and worker are exactly what the control plane deploys.
type profileSpec struct {
	tracePath  string // Chrome trace JSON output ("" = off)
	attr       bool   // print attribution tables
	cpuProfile string // pprof CPU profile of the measured window ("" = off)
	memProfile string // pprof heap profile after the window ("" = off)
	spec       deploy.Spec
}

// profile executes one observed run: warmup untraced, then the
// measured window with the requested tracers attached. The attribution
// tables go to out; the Chrome trace to tracePath.
func profile(p profileSpec, out io.Writer) error {
	if err := p.spec.Validate(); err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	core, err := sim.NewCore(cfg)
	if err != nil {
		return err
	}
	prog, run, err := deploy.DefaultRegistry().Build(core, p.spec)
	if err != nil {
		return err
	}

	if p.spec.Warmup > 0 {
		if _, err := run(p.spec.Warmup); err != nil {
			return err
		}
	}

	// Attach observation only for the measured window, so warmup noise
	// (cold caches, first-touch misses) stays out of the profile. The
	// host pprof window matches: started here, stopped right after the
	// measured packets, before any report rendering.
	stopCPU, err := startCPUProfile(p.cpuProfile)
	if err != nil {
		return err
	}
	var col *obs.Collector
	var tw *obs.TraceWriter
	var tracers []sim.Tracer
	if p.attr {
		col = obs.NewCollector(prog, cfg.FreqHz)
		tracers = append(tracers, col)
	}
	if p.tracePath != "" {
		tw = obs.NewTraceWriter(prog, cfg.FreqHz)
		tracers = append(tracers, tw)
	}
	// Append only live tracers: a typed-nil *Collector or *TraceWriter
	// boxed into sim.Tracer is a non-nil interface, which Multi would
	// keep and then segfault on.
	core.SetTracer(obs.Multi(tracers...))
	res, err := run(p.spec.Packets)
	if err != nil {
		stopCPU()
		return err
	}
	core.SetTracer(nil)
	if err := stopCPU(); err != nil {
		return err
	}
	if err := writeHeapProfile(p.memProfile); err != nil {
		return err
	}

	fmt.Fprintf(out, "profiled %s: %d packets, %.2f Gbps, %s\n\n",
		p.spec.NF, res.Packets, res.Gbps(), res.Counters.String())
	if col != nil {
		for _, t := range col.Tables() {
			if err := t.Render(out); err != nil {
				return err
			}
		}
	}
	if tw != nil {
		f, err := os.Create(p.tracePath)
		if err != nil {
			return err
		}
		if err := tw.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace events to %s (open in ui.perfetto.dev)\n", tw.Len(), p.tracePath)
	}
	return nil
}
