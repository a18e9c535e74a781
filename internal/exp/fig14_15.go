package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/director"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/upf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
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

// sfcSource builds a workload over a flow population for a packet size
// (0 = CAIDA), emitting only the [shardBase, shardBase+shardCount)
// index range (RSS steering; 0 count = all).
func sfcSource(flows, shardBase, shardCount, size int, seed int64) (rt.Source, []pkt.FiveTuple, error) {
	if size == 0 {
		g, err := traffic.NewCaidaGen(traffic.CaidaConfig{
			Flows: flows, Seed: seed, ShardBase: shardBase, ShardCount: shardCount,
		})
		if err != nil {
			return nil, nil, err
		}
		tuples := make([]pkt.FiveTuple, flows)
		for i := range tuples {
			tuples[i] = g.FlowTuple(i)
		}
		return g, tuples, nil
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{
		Flows: flows, PacketBytes: size, Order: traffic.OrderUniform, Seed: seed,
		ShardBase: shardBase, ShardCount: shardCount,
	})
	if err != nil {
		return nil, nil, err
	}
	tuples := make([]pkt.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	return g, tuples, nil
}

// Fig14 reproduces Figure 14: the length-6 SFC (with MR, DP and PRR)
// scaling across cores for each packet size, 130K flows total, against
// the RTC (BESS-style) execution model on the same core count.
func Fig14(o Options) ([]*stats.Table, error) {
	totalFlows := o.pick(130000, 8192)
	perCore := o.pickU(60000, 4000)
	coreCounts := []int{1, 2, 4, 8, 12, 16}
	if o.Quick {
		coreCounts = []int{1, 2, 4}
	}

	// The (size × cores) grid flattens into one sweep so every cell can
	// run concurrently; cells are re-assembled into rows by index.
	t := stats.NewTable(
		"Figure 14 — SFC(6) multi-core scaling, GuNFu (IL-16 + DP + MR) aggregate Gbps ('*' = line rate)",
		append([]string{"size"}, coreLabels(coreCounts)...)...)
	cells := make([]string, len(packetSizes)*len(coreCounts))
	if err := o.forEach(len(cells), func(i int) error {
		size := packetSizes[i/len(coreCounts)]
		cores := coreCounts[i%len(coreCounts)]
		agg, err := runSFCCores(o, 6, totalFlows, size, cores, perCore, true)
		if err != nil {
			return err
		}
		cells[i] = capGbps(agg.Gbps())
		return nil
	}); err != nil {
		return nil, err
	}
	for si, size := range packetSizes {
		row := append([]string{sizeLabel(size)}, cells[si*len(coreCounts):(si+1)*len(coreCounts)]...)
		t.AddRow(row...)
	}

	// The comparison baseline is the *monolithic* RTC deployment the
	// paper measures (BESS-style): every core runs run-to-completion
	// over the full 130K-flow table, with RSS steering the traffic.
	cmpCores := 4
	if o.Quick {
		cmpCores = 2
	}
	t2 := stats.NewTable(
		"Figure 14 (comparison) — monolithic RTC (BESS-style) vs GuNFu, SFC(6), "+stats.I(cmpCores)+" cores",
		"size", "rtc-gbps", "gunfu-gbps")
	rows2 := make([][]string, len(packetSizes))
	if err := o.forEach(len(packetSizes), func(i int) error {
		size := packetSizes[i]
		rtcAgg, err := runSFCCores(o, 6, totalFlows, size, cmpCores, perCore, false)
		if err != nil {
			return err
		}
		ilAgg, err := runSFCCores(o, 6, totalFlows, size, cmpCores, perCore, true)
		if err != nil {
			return err
		}
		rows2[i] = []string{sizeLabel(size), capGbps(rtcAgg.Gbps()), capGbps(ilAgg.Gbps())}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows2 {
		t2.AddRow(row...)
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

// runSFCCores runs the SFC on `cores` cores. GuNFu (interleaved=true)
// deploys granularly decomposed, state-sharded instances: each core
// owns totalFlows/cores flows. The RTC comparator is the monolithic
// deployment the paper measures (BESS-style): every core runs
// run-to-completion over the full flow table, traffic split by RSS.
func runSFCCores(o Options, length, totalFlows, size, cores int, perCore uint64, interleaved bool) (rt.Result, error) {
	flowsPerCore := totalFlows / cores
	if flowsPerCore < 16 {
		flowsPerCore = 16
	}
	setups := make([]rt.CoreSetup, cores)
	for i := 0; i < cores; i++ {
		coreID := i
		setups[i] = rt.CoreSetup{NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			seed := o.Seed + int64(coreID)*7919
			var as *mem.AddressSpace
			var prog *model.Program
			var src rt.Source
			var err error
			if interleaved {
				as, prog, src, err = sfcSetupSized(length, flowsPerCore, 0, 0, size, seed)
			} else {
				// The monolithic baseline runs the *plain* chain — no
				// fusing, no matching removal — since those are GuNFu
				// compiler features the compared platforms lack.
				as, prog, src, err = sfcSetupPlain(length, totalFlows, coreID*flowsPerCore, flowsPerCore, size, seed)
			}
			if err != nil {
				return nil, nil, err
			}
			cfg := rt.DefaultConfig()
			if !interleaved {
				cfg = rt.RTCConfig()
			}
			w, err := rt.NewWorker(core, as, prog, cfg)
			return w, src, err
		}}
	}
	eng, err := rt.NewEngine(o.simCfg(), setups)
	if err != nil {
		return rt.Result{}, err
	}
	results, err := eng.Run(perCore)
	if err != nil {
		return rt.Result{}, err
	}
	return rt.AggregateStrict(results)
}

// sfcSetupSized builds the fully optimized (fused DP + MR) SFC over a
// flow population with a packet-size axis (0 = CAIDA) and an optional
// traffic shard (shardCount = 0 means all flows).
func sfcSetupSized(length, flows, shardBase, shardCount, size int, seed int64) (*mem.AddressSpace, *model.Program, rt.Source, error) {
	src, tuples, err := sfcSource(flows, shardBase, shardCount, size, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	as := mem.NewAddressSpace()
	chain, err := director.NewChain(as, length, flows, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		return nil, nil, nil, err
	}
	prog, err := compile.BuildSFC("sfc", chain, compile.SFCOptions{RemoveRedundantMatching: true})
	if err != nil {
		return nil, nil, nil, err
	}
	return as, prog, src, nil
}

// sfcSetupPlain builds the unoptimized chain (per-NF pools and
// classifiers) over a flow population with a traffic shard — the
// monolithic RTC deployment's program.
func sfcSetupPlain(length, flows, shardBase, shardCount, size int, seed int64) (*mem.AddressSpace, *model.Program, rt.Source, error) {
	src, tuples, err := sfcSource(flows, shardBase, shardCount, size, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	as := mem.NewAddressSpace()
	chain, err := director.BuildChain(as, length, flows)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		return nil, nil, nil, err
	}
	prog, err := compile.BuildSFC("sfc", chain, compile.SFCOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	return as, prog, src, nil
}

// Fig15 reproduces Figure 15: UPF downlink multi-core scaling with
// 130K PFCP sessions and 16 PDRs each, per packet size, against the
// RTC (L25GC-style) execution model on the same cores.
func Fig15(o Options) ([]*stats.Table, error) {
	totalSessions := o.pick(130000, 8192)
	perCore := o.pickU(60000, 4000)
	coreCounts := []int{1, 2, 4, 6, 8, 10, 12}
	if o.Quick {
		coreCounts = []int{1, 2, 4}
	}
	sizes := []int{512, 1024, 1512, 0}

	t := stats.NewTable(
		"Figure 15 — UPF multi-core scaling, GuNFu aggregate Gbps (130K sessions, 16 PDRs; '*' = line rate)",
		append([]string{"size"}, coreLabels(coreCounts)...)...)
	cells := make([]string, len(sizes)*len(coreCounts))
	if err := o.forEach(len(cells), func(i int) error {
		size := sizes[i/len(coreCounts)]
		cores := coreCounts[i%len(coreCounts)]
		agg, err := runUPFCores(o, totalSessions, size, cores, perCore, true)
		if err != nil {
			return err
		}
		cells[i] = capGbps(agg.Gbps())
		return nil
	}); err != nil {
		return nil, err
	}
	for si, size := range sizes {
		row := append([]string{sizeLabel(size)}, cells[si*len(coreCounts):(si+1)*len(coreCounts)]...)
		t.AddRow(row...)
	}

	// The comparison baseline is the monolithic RTC deployment
	// (L25GC-style): each core processes run-to-completion against the
	// full 130K-session state, traffic split by RSS.
	cmpCores := 4
	if o.Quick {
		cmpCores = 2
	}
	t2 := stats.NewTable(
		"Figure 15 (comparison) — monolithic RTC (L25GC-style) vs GuNFu, 16 PDRs, "+stats.I(cmpCores)+" cores",
		"size", "rtc-gbps", "gunfu-gbps")
	rows2 := make([][]string, len(sizes))
	if err := o.forEach(len(sizes), func(i int) error {
		size := sizes[i]
		rtcAgg, err := runUPFCores(o, totalSessions, size, cmpCores, perCore, false)
		if err != nil {
			return err
		}
		ilAgg, err := runUPFCores(o, totalSessions, size, cmpCores, perCore, true)
		if err != nil {
			return err
		}
		rows2[i] = []string{sizeLabel(size), capGbps(rtcAgg.Gbps()), capGbps(ilAgg.Gbps())}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows2 {
		t2.AddRow(row...)
	}
	return []*stats.Table{t, t2}, nil
}

// runUPFCores runs the UPF downlink on `cores` cores. GuNFu deploys
// state-sharded per-core instances; the RTC comparator is the
// monolithic deployment (full session table on every core, traffic
// split by RSS).
func runUPFCores(o Options, totalSessions, size, cores int, perCore uint64, interleaved bool) (rt.Result, error) {
	perCoreSessions := totalSessions / cores
	if perCoreSessions < 16 {
		perCoreSessions = 16
	}
	pktBytes := size
	setups := make([]rt.CoreSetup, cores)
	for i := 0; i < cores; i++ {
		coreID := i
		setups[i] = rt.CoreSetup{NewWorker: func(core *sim.Core) (*rt.Worker, rt.Source, error) {
			seed := o.Seed + int64(coreID)*104729
			sessions, shardBase, shardCount := perCoreSessions, 0, 0
			if !interleaved {
				sessions = totalSessions
				shardBase, shardCount = coreID*perCoreSessions, perCoreSessions
			}
			as := mem.NewAddressSpace()
			u, err := upf.New(as, upf.Config{Sessions: sessions, PDRsPerSession: 16})
			if err != nil {
				return nil, nil, err
			}
			prog, err := u.DownlinkProgram()
			if err != nil {
				return nil, nil, err
			}
			var src rt.Source
			if pktBytes == 0 {
				src, err = newCaidaMGW(sessions, shardBase, shardCount, seed)
			} else {
				src, err = traffic.NewMGWGen(traffic.MGWConfig{
					Sessions: sessions, PDRs: 16, PacketBytes: pktBytes, Seed: seed,
					ShardBase: shardBase, ShardCount: shardCount,
				})
			}
			if err != nil {
				return nil, nil, err
			}
			cfg := rt.DefaultConfig()
			if !interleaved {
				cfg = rt.RTCConfig()
			}
			w, err := rt.NewWorker(core, as, prog, cfg)
			return w, src, err
		}}
	}
	eng, err := rt.NewEngine(o.simCfg(), setups)
	if err != nil {
		return rt.Result{}, err
	}
	results, err := eng.Run(perCore)
	if err != nil {
		return rt.Result{}, err
	}
	return rt.AggregateStrict(results)
}

// caidaMGW wraps the MGW generator with the CAIDA IMIX size mix: UE-
// addressed downlink traffic whose packet sizes follow the trace
// distribution.
type caidaMGW struct {
	mgw   *traffic.MGWGen
	sizes *traffic.CaidaGen
}

func newCaidaMGW(sessions, shardBase, shardCount int, seed int64) (rt.Source, error) {
	mgw, err := traffic.NewMGWGen(traffic.MGWConfig{
		Sessions: sessions, PDRs: 16, PacketBytes: 64, Seed: seed,
		ShardBase: shardBase, ShardCount: shardCount,
	})
	if err != nil {
		return nil, err
	}
	sizes, err := traffic.NewCaidaGen(traffic.CaidaConfig{Flows: 64, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	return &caidaMGW{mgw: mgw, sizes: sizes}, nil
}

// Next emits an MGW packet with an IMIX wire length.
func (c *caidaMGW) Next() *pkt.Packet {
	p := c.mgw.Next()
	p.WireLen = c.sizes.Next().WireLen
	return p
}
