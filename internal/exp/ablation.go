package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// Ablations isolates the design choices DESIGN.md calls out, beyond
// the paper's own figures: the prefetching step of Algorithm 1, the
// P-state resident check, the MSHR budget, and the NFTask switch cost.
// All run the 130K-flow NAT at 16 interleaved NFTasks.
func Ablations(o Options) ([]*stats.Table, error) {
	flows := o.pick(1<<17, 1<<13)
	warm := o.pickU(20000, 2000)
	window := o.pickU(100000, 8000)

	nat := o.deploy(deploy.Spec{NF: "nat", Flows: flows})
	// natOn runs the NAT at 16 NFTasks on cores of simCfg, from a pool of
	// that configuration.
	natOn := func(simCfg sim.Config) (rt.Result, error) {
		p := o
		p.pool = sim.NewCorePool(simCfg)
		return p.run(nat, rt.ConfigFor(16), warm, window)
	}

	// (a) Scheduler feature ladder.
	t1 := stats.NewTable(
		"Ablation A — scheduler features (NAT, 130K flows, 16 NFTasks)",
		"config", "gbps", "cyc/pkt", "l1hit", "pf-useful/pkt")
	features := []struct {
		name   string
		mutate func(*rt.Config)
	}{
		{"interleave only (no prefetch)", func(c *rt.Config) { c.Prefetch = false }},
		{"prefetch, no resident check", func(c *rt.Config) { c.ResidentCheck = false }},
		{"full (prefetch + P-state check)", nil},
	}
	rows1 := make([][]string, len(features))
	if err := o.forEach(len(features), func(i int) error {
		f := features[i]
		cfg := rt.ConfigFor(16)
		if f.mutate != nil {
			f.mutate(&cfg)
		}
		res, err := o.run(nat, cfg, warm, window)
		if err != nil {
			return err
		}
		rows1[i] = []string{f.name, stats.F(res.Gbps(), 2), stats.F(res.CyclesPerPacket(), 1),
			stats.Pct(res.Counters.L1HitRate()),
			stats.F(float64(res.Counters.PrefetchUseful)/float64(res.Packets), 2)}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows1 {
		t1.AddRow(row...)
	}

	// (b) MSHR budget: memory-level parallelism available to the
	// prefetcher caps how many streams' fills can be in flight.
	t2 := stats.NewTable(
		"Ablation B — MSHR budget (NAT, 130K flows, 16 NFTasks)",
		"mshrs", "gbps", "pf-dropped/pkt")
	mshrSweep := []int{2, 4, 8, 12, 16, 32}
	rows2 := make([][]string, len(mshrSweep))
	if err := o.forEach(len(mshrSweep), func(i int) error {
		simCfg := o.simCfg()
		simCfg.MSHRs = mshrSweep[i]
		res, err := natOn(simCfg)
		if err != nil {
			return err
		}
		rows2[i] = []string{stats.I(mshrSweep[i]), stats.F(res.Gbps(), 2),
			stats.F(float64(res.Counters.PrefetchDropped)/float64(res.Packets), 2)}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows2 {
		t2.AddRow(row...)
	}

	// (c) NFTask switch cost: how light the runtime must be for
	// interleaving to pay (Figure 9's motivation).
	t3 := stats.NewTable(
		"Ablation C — NFTask switch cost (NAT, 130K flows, 16 NFTasks)",
		"switch-cycles", "gbps", "cyc/pkt")
	costSweep := []uint64{4, 12, 24, 48, 96}
	rows3 := make([][]string, len(costSweep))
	if err := o.forEach(len(costSweep), func(i int) error {
		simCfg := o.simCfg()
		simCfg.SwitchCost = costSweep[i]
		res, err := natOn(simCfg)
		if err != nil {
			return err
		}
		rows3[i] = []string{stats.U(costSweep[i]), stats.F(res.Gbps(), 2), stats.F(res.CyclesPerPacket(), 1)}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows3 {
		t3.AddRow(row...)
	}

	return []*stats.Table{t1, t2, t3}, nil
}
