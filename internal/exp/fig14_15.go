package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// LineRateGbps is the paper's NIC line rate (100 Gbps ConnectX-6).
const LineRateGbps = 100.0

// packetSizes is the size axis of Figures 14 and 15; 0 denotes the
// CAIDA-like IMIX trace.
var packetSizes = []int{64, 512, 1024, 1512, 0}

func sizeLabel(size int) string {
	if size == 0 {
		return "CAIDA"
	}
	return stats.I(size) + "B"
}

// capGbps caps reported throughput at line rate, as the NIC would.
func capGbps(v float64) string {
	if v >= LineRateGbps {
		return stats.F(LineRateGbps, 0) + "*"
	}
	return stats.F(v, 1)
}

// Fig14 reproduces Figure 14: the length-6 SFC (with MR and DP)
// scaling across cores for each packet size, 130K flows total, against
// the RTC (BESS-style) execution model on the same core count.
func Fig14(o Options) ([]*stats.Table, error) {
	coreCounts := []int{1, 2, 4, 8, 12, 16}
	if o.Quick {
		coreCounts = []int{1, 2, 4}
	}
	return o.scaling(packetSizes, coreCounts,
		"Figure 14 — SFC(6) multi-core scaling, GuNFu (IL-16 + DP + MR) aggregate Gbps ('*' = line rate)",
		"Figure 14 (comparison) — monolithic RTC (BESS-style) vs GuNFu, SFC(6)",
		func(as *mem.AddressSpace, core, size, flows, shardBase, shardCount int, interleaved bool) (*model.Program, rt.Source, error) {
			// The monolithic baseline runs the *plain* chain — no fusing,
			// no matching removal — since those are GuNFu compiler
			// features the compared platforms lack.
			opts := compile.SFCOptions{RemoveRedundantMatching: interleaved}
			return deploy.NewSFC(as, 6, flows, interleaved, opts, size, shardBase, shardCount, o.Seed+int64(core)*7919)
		})
}

// Fig15 reproduces Figure 15: UPF downlink multi-core scaling with
// 130K PFCP sessions and 16 PDRs each, per packet size, against the
// RTC (L25GC-style) execution model on the same cores.
func Fig15(o Options) ([]*stats.Table, error) {
	coreCounts := []int{1, 2, 4, 6, 8, 10, 12}
	if o.Quick {
		coreCounts = []int{1, 2, 4}
	}
	return o.scaling([]int{512, 1024, 1512, 0}, coreCounts,
		"Figure 15 — UPF multi-core scaling, GuNFu aggregate Gbps (130K sessions, 16 PDRs; '*' = line rate)",
		"Figure 15 (comparison) — monolithic RTC (L25GC-style) vs GuNFu, 16 PDRs",
		func(as *mem.AddressSpace, core, size, sessions, shardBase, shardCount int, _ bool) (*model.Program, rt.Source, error) {
			return deploy.NewUPF(as, sessions, 16, size, shardBase, shardCount, o.Seed+int64(core)*104729)
		})
}

// coreSetup builds one engine core's deployable for a scaling figure:
// core is the core's index, size the packet size (0 = CAIDA), flows the
// state it holds and [shardBase, shardBase+shardCount) the flows RSS
// steers to it (shardCount 0 = all of them).
type coreSetup func(as *mem.AddressSpace, core, size, flows, shardBase, shardCount int, interleaved bool) (*model.Program, rt.Source, error)

// scaling renders a multi-core scaling figure: GuNFu's aggregate Gbps
// over the (size × cores) grid, then a comparison at a fixed core count
// against the monolithic RTC deployment, whose GuNFu column is the
// grid's.
func (o Options) scaling(sizes, coreCounts []int, title, cmpTitle string, setup coreSetup) ([]*stats.Table, error) {
	// The grid flattens into one sweep so every cell can run
	// concurrently; cells are re-assembled into rows by index.
	t := stats.NewTable(title, append([]string{"size"}, coreLabels(coreCounts)...)...)
	cells, err := sweep(o, len(sizes)*len(coreCounts), func(i int) (string, error) {
		agg, err := o.runCores(setup, sizes[i/len(coreCounts)], coreCounts[i%len(coreCounts)], true)
		return capGbps(agg.Gbps()), err
	})
	if err != nil {
		return nil, err
	}
	for si, size := range sizes {
		t.AddRow(append([]string{sizeLabel(size)}, cells[si*len(coreCounts):(si+1)*len(coreCounts)]...)...)
	}

	cmpCores := o.pick(4, 2)
	col := 0
	for col < len(coreCounts) && coreCounts[col] != cmpCores {
		col++
	}
	t2 := stats.NewTable(cmpTitle+", "+stats.I(cmpCores)+" cores", "size", "rtc-gbps", "gunfu-gbps")
	rtc, err := sweep(o, len(sizes), func(i int) (rt.Result, error) {
		return o.runCores(setup, sizes[i], cmpCores, false)
	})
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		t2.AddRow(sizeLabel(size), capGbps(rtc[i].Gbps()), cells[i*len(coreCounts)+col])
	}
	return []*stats.Table{t, t2}, nil
}

func coreLabels(counts []int) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = stats.I(c) + "c"
	}
	return out
}

// runCores runs one scaling-figure cell on `cores` engine cores, each
// for the same packet budget, and aggregates them. GuNFu (interleaved)
// deploys granularly decomposed, state-sharded instances: each core
// owns totalFlows/cores flows. The RTC comparator is the monolithic
// deployment the paper measures (BESS-, L25GC-style): every core runs
// run-to-completion over the full flow table, traffic split by RSS.
func (o Options) runCores(setup coreSetup, size, cores int, interleaved bool) (rt.Result, error) {
	totalFlows := o.pick(130000, 8192)
	share := max(totalFlows/cores, 16)
	perCore := o.pickU(60000, 4000)
	cfg := rt.ConfigFor(0)
	if interleaved {
		cfg = rt.ConfigFor(16)
	}
	setups := make([]rt.CoreSetup, cores)
	for i := range setups {
		setups[i] = rt.CoreSetup{NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			as := mem.NewAddressSpace()
			flows, shardBase, shardCount := share, 0, 0
			if !interleaved {
				flows, shardBase, shardCount = totalFlows, i*share, share
			}
			prog, src, err := setup(as, i, size, flows, shardBase, shardCount, interleaved)
			if err != nil {
				return nil, nil, err
			}
			w, err := rt.NewWorker(core, as, prog, cfg)
			return w, src, err
		}}
	}
	eng, err := rt.NewEngine(sim.DefaultConfig(), setups)
	if err != nil {
		return rt.Result{}, err
	}
	results, err := eng.Run(perCore)
	if err != nil {
		return rt.Result{}, err
	}
	return rt.Aggregate(results), nil
}
