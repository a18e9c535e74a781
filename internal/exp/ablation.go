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
	// natOn sweeps the NAT at 16 NFTasks over n core configurations:
	// point i runs on cores of sim.DefaultConfig() mutated by set(i, ·),
	// from a pool of that configuration.
	natOn := func(n int, set func(i int, c *sim.Config)) ([]rt.Result, error) {
		return sweep(o, n, func(i int) (rt.Result, error) {
			simCfg := sim.DefaultConfig()
			set(i, &simCfg)
			p := o
			p.pool = sim.NewCorePool(simCfg)
			return p.run(nat, rt.ConfigFor(16), warm, window)
		})
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
		{"full (prefetch + P-state check)", func(*rt.Config) {}},
	}
	byFeature, err := sweep(o, len(features), func(i int) (rt.Result, error) {
		cfg := rt.ConfigFor(16)
		features[i].mutate(&cfg)
		return o.run(nat, cfg, warm, window)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range byFeature {
		t1.AddRow(features[i].name, stats.F(res.Gbps(), 2), stats.F(res.CyclesPerPacket(), 1),
			stats.Pct(res.Counters.L1HitRate()),
			stats.F(float64(res.Counters.PrefetchUseful)/float64(res.Packets), 2))
	}

	// (b) MSHR budget: memory-level parallelism available to the
	// prefetcher caps how many streams' fills can be in flight.
	t2 := stats.NewTable(
		"Ablation B — MSHR budget (NAT, 130K flows, 16 NFTasks)",
		"mshrs", "gbps", "pf-dropped/pkt")
	mshrSweep := []int{2, 4, 8, 12, 16, 32}
	byMSHRs, err := natOn(len(mshrSweep), func(i int, c *sim.Config) { c.MSHRs = mshrSweep[i] })
	if err != nil {
		return nil, err
	}
	for i, res := range byMSHRs {
		t2.AddRow(stats.I(mshrSweep[i]), stats.F(res.Gbps(), 2),
			stats.F(float64(res.Counters.PrefetchDropped)/float64(res.Packets), 2))
	}

	// (c) NFTask switch cost: how light the runtime must be for
	// interleaving to pay (Figure 9's motivation).
	t3 := stats.NewTable(
		"Ablation C — NFTask switch cost (NAT, 130K flows, 16 NFTasks)",
		"switch-cycles", "gbps", "cyc/pkt")
	costSweep := []uint64{4, 12, 24, 48, 96}
	byCost, err := natOn(len(costSweep), func(i int, c *sim.Config) { c.SwitchCost = costSweep[i] })
	if err != nil {
		return nil, err
	}
	for i, res := range byCost {
		t3.AddRow(stats.U(costSweep[i]), stats.F(res.Gbps(), 2), stats.F(res.CyclesPerPacket(), 1))
	}

	return []*stats.Table{t1, t2, t3}, nil
}
