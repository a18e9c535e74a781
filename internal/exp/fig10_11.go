package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// taskSweep is the interleaving-depth axis of Figures 10 and 11.
var taskSweep = []int{1, 2, 4, 8, 16, 32, 64}

// taskPoint is one point of a task sweep: its row label and result.
type taskPoint struct {
	label string
	rt.Result
}

// sweepTasks runs build run-to-completion (point 0, "RTC") and then
// interleaved at every taskSweep depth ("IL-<n>"), one sweep point each.
func (o Options) sweepTasks(build deployable, warm, window uint64) ([]taskPoint, error) {
	return sweep(o, 1+len(taskSweep), func(i int) (p taskPoint, err error) {
		tasks := 0
		p.label = "RTC"
		if i > 0 {
			tasks = taskSweep[i-1]
			p.label = "IL-" + stats.I(tasks)
		}
		p.Result, err = o.run(build, rt.ConfigFor(tasks), warm, window)
		return p, err
	})
}

// Fig10 reproduces Figure 10: single-core UPF downlink under the
// interleaved model — throughput across NFTask counts and rule counts,
// and the L1/L2/IPC micro-architecture story at 16 NFTasks.
func Fig10(o Options) ([]*stats.Table, error) {
	sessions := o.pick(1<<15, 1<<11)
	warm := o.pickU(20000, 2000)
	window := o.pickU(120000, 8000)

	// (a) Throughput vs interleaved NFTasks, PDRs fixed at 16. Point 0
	// is the RTC baseline every speedup is relative to.
	t1 := stats.NewTable(
		"Figure 10(a) — UPF downlink throughput vs interleaved NFTasks (PDRs=16, 64B, 1 core)",
		"config", "gbps", "mpps", "cyc/pkt", "speedup-vs-rtc")
	points, err := o.sweepTasks(o.deploy(deploy.Spec{NF: "upf-downlink", Flows: sessions, PDRs: 16}), warm, window)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		t1.AddRow(p.label, stats.F(p.Gbps(), 2), stats.F(p.Mpps(), 2),
			stats.F(p.CyclesPerPacket(), 1), stats.F(p.Gbps()/points[0].Gbps(), 2))
	}

	// (b,c,d) Micro-architecture metrics vs rule count, RTC vs IL-16.
	pdrSweep := []int{2, 8, 16, 32, 64}
	if o.Quick {
		pdrSweep = []int{2, 16, 64}
	}
	t2 := stats.NewTable(
		"Figure 10(b,c,d) — UPF cache utilization and IPC vs PDRs (16 NFTasks vs RTC)",
		"pdrs", "rtc-l1hit", "il16-l1hit", "rtc-l2hit", "il16-l2hit", "rtc-ipc", "il16-ipc")
	pairs, err := sweep(o, len(pdrSweep), func(i int) (r [2]rt.Result, err error) {
		upf := o.deploy(deploy.Spec{NF: "upf-downlink", Flows: sessions, PDRs: pdrSweep[i]})
		if r[0], err = o.run(upf, rt.RTCConfig(), warm, window); err != nil {
			return r, err
		}
		r[1], err = o.run(upf, rt.ConfigFor(16), warm, window)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range pairs {
		rtc, il := r[0].Counters, r[1].Counters
		t2.AddRow(stats.I(pdrSweep[i]), stats.Pct(rtc.L1HitRate()), stats.Pct(il.L1HitRate()),
			stats.Pct(rtc.L2HitRate()), stats.Pct(il.L2HitRate()), stats.F(rtc.IPC(), 2), stats.F(il.IPC(), 2))
	}
	return []*stats.Table{t1, t2}, nil
}

// Fig11 reproduces Figure 11: the NAT under granular decomposition —
// one NFTask is slower than RTC (scheduler overhead with nothing to
// overlap), the benefit appears from 4 streams, peaks near 16, and
// degrades at 64. At the default 2048-B rx slot stride that drop is
// mostly header-line aliasing (every header in one of two L1 sets):
// the NAT loses 15.6 % from 16 to 64 tasks there and 1.7 % at a
// 2304-B stride (ROADMAP item 2).
func Fig11(o Options) ([]*stats.Table, error) {
	flows := o.pick(1<<17, 1<<13)
	warm := o.pickU(20000, 2000)
	window := o.pickU(150000, 10000)

	t := stats.NewTable(
		"Figure 11 — NAT throughput and cache utilization vs interleaved NFTasks (130K flows, 64B, 1 core)",
		"config", "gbps", "mpps", "l1hit", "l2hit", "ipc", "speedup-vs-rtc")
	points, err := o.sweepTasks(o.deploy(deploy.Spec{NF: "nat", Flows: flows}), warm, window)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		t.AddRow(p.label, stats.F(p.Gbps(), 2), stats.F(p.Mpps(), 2),
			stats.Pct(p.Counters.L1HitRate()), stats.Pct(p.Counters.L2HitRate()),
			stats.F(p.Counters.IPC(), 2), stats.F(p.Gbps()/points[0].Gbps(), 2))
	}
	return []*stats.Table{t}, nil
}
