package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/director"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// taskSweep is the interleaving-depth axis of Figures 10 and 11.
var taskSweep = []int{1, 2, 4, 8, 16, 32, 64}

// sweepTasks runs build run-to-completion (result 0) and then
// interleaved at every taskSweep depth, one sweep point each.
func (o Options) sweepTasks(build deployable, warm, window uint64) ([]rt.Result, error) {
	results := make([]rt.Result, 1+len(taskSweep))
	err := o.forEach(len(results), func(i int) (err error) {
		cfg := rt.RTCConfig()
		if i > 0 {
			cfg = ilConfig(taskSweep[i-1])
		}
		results[i], err = o.run(build, cfg, warm, window)
		return err
	})
	return results, err
}

// Fig10 reproduces Figure 10: single-core UPF downlink under the
// interleaved model — throughput across NFTask counts and rule counts,
// and the L1/L2/IPC micro-architecture story at 16 NFTasks.
func Fig10(o Options) ([]*stats.Table, error) {
	sessions := o.pick(1<<15, 1<<11)
	warm := o.pickU(20000, 2000)
	window := o.pickU(120000, 8000)

	// (a) Throughput vs interleaved NFTasks, PDRs fixed at 16. Point 0
	// is the RTC baseline; speedups are computed once all points are in.
	t1 := stats.NewTable(
		"Figure 10(a) — UPF downlink throughput vs interleaved NFTasks (PDRs=16, 64B, 1 core)",
		"config", "gbps", "mpps", "cyc/pkt", "speedup-vs-rtc")
	results, err := o.sweepTasks(o.deploy(director.DeploySpec{NF: "upf-downlink", Flows: sessions, PDRs: 16}), warm, window)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t1.AddRow("RTC", stats.F(base.Gbps(), 2), stats.F(base.Mpps(), 2),
		stats.F(base.CyclesPerPacket(), 1), "1.00")
	for i, tasks := range taskSweep {
		res := results[i+1]
		t1.AddRow("IL-"+stats.I(tasks), stats.F(res.Gbps(), 2), stats.F(res.Mpps(), 2),
			stats.F(res.CyclesPerPacket(), 1), stats.F(res.Gbps()/base.Gbps(), 2))
	}

	// (b,c,d) Micro-architecture metrics vs rule count, RTC vs IL-16.
	pdrSweep := []int{2, 8, 16, 32, 64}
	if o.Quick {
		pdrSweep = []int{2, 16, 64}
	}
	t2 := stats.NewTable(
		"Figure 10(b,c,d) — UPF cache utilization and IPC vs PDRs (16 NFTasks vs RTC)",
		"pdrs", "rtc-l1hit", "il16-l1hit", "rtc-l2hit", "il16-l2hit", "rtc-ipc", "il16-ipc")
	rows := make([][]string, len(pdrSweep))
	if err := o.forEach(len(pdrSweep), func(i int) error {
		pdrs := pdrSweep[i]
		upf := o.deploy(director.DeploySpec{NF: "upf-downlink", Flows: sessions, PDRs: pdrs})
		rtcRes, err := o.run(upf, rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		ilRes, err := o.run(upf, ilConfig(16), warm, window)
		if err != nil {
			return err
		}
		rows[i] = []string{
			stats.I(pdrs),
			stats.Pct(rtcRes.Counters.L1HitRate()),
			stats.Pct(ilRes.Counters.L1HitRate()),
			stats.Pct(rtcRes.Counters.L2HitRate()),
			stats.Pct(ilRes.Counters.L2HitRate()),
			stats.F(rtcRes.Counters.IPC(), 2),
			stats.F(ilRes.Counters.IPC(), 2),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		t2.AddRow(row...)
	}
	return []*stats.Table{t1, t2}, nil
}

// Fig11 reproduces Figure 11: the NAT under granular decomposition —
// one NFTask is slower than RTC (scheduler overhead with nothing to
// overlap), the benefit appears from 4 streams, peaks near 16, and
// degrades at 64 when prefetched lines start being evicted before use.
func Fig11(o Options) ([]*stats.Table, error) {
	flows := o.pick(1<<17, 1<<13)
	warm := o.pickU(20000, 2000)
	window := o.pickU(150000, 10000)

	t := stats.NewTable(
		"Figure 11 — NAT throughput and cache utilization vs interleaved NFTasks (130K flows, 64B, 1 core)",
		"config", "gbps", "mpps", "l1hit", "l2hit", "ipc", "speedup-vs-rtc")

	results, err := o.sweepTasks(o.deploy(director.DeploySpec{NF: "nat", Flows: flows}), warm, window)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t.AddRow("RTC", stats.F(base.Gbps(), 2), stats.F(base.Mpps(), 2),
		stats.Pct(base.Counters.L1HitRate()), stats.Pct(base.Counters.L2HitRate()),
		stats.F(base.Counters.IPC(), 2), "1.00")
	for i, tasks := range taskSweep {
		res := results[i+1]
		t.AddRow("IL-"+stats.I(tasks), stats.F(res.Gbps(), 2), stats.F(res.Mpps(), 2),
			stats.Pct(res.Counters.L1HitRate()), stats.Pct(res.Counters.L2HitRate()),
			stats.F(res.Counters.IPC(), 2), stats.F(res.Gbps()/base.Gbps(), 2))
	}
	return []*stats.Table{t}, nil
}
