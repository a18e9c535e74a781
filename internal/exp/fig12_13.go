package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/nf/amf"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Fig12 reproduces Figure 12: the granularly decomposed AMF with 16
// interleaved NFTasks against the RTC baseline, per registration
// message type, plus the extra gain from data-packing the UE context
// (packing each handler's co-accessed fields into adjacent lines).
func Fig12(o Options) ([]*stats.Table, error) {
	ues := o.pick(1<<17, 1<<12)
	warm := o.pickU(10000, 1000)
	window := o.pickU(60000, 5000)

	packed, err := compile.PackLayout(amf.Fields(), amf.AccessGroups())
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		"Figure 12 — AMF registration messages: RTC vs 16 interleaved NFTasks vs +data packing (UEs=2^17)",
		"message", "rtc-kmsg/s", "il16-kmsg/s", "il16-speedup", "dp-kmsg/s", "dp-gain", "rtc-llcm/msg", "il16-llcm/msg")
	// Message type 0 runs the full interleaved call flow — the
	// cycle-weighted aggregate, where the state-heaviest messages
	// dominate and data packing shows its net effect.
	results, err := sweep(o, traffic.NumAMFMessages+1, func(i int) (r [3]rt.Result, err error) {
		m := uint8(i)
		if r[0], err = o.run(o.amfPoint(ues, m, nil), rt.RTCConfig(), warm, window); err != nil {
			return r, err
		}
		if r[1], err = o.run(o.amfPoint(ues, m, nil), rt.ConfigFor(16), warm, window); err != nil {
			return r, err
		}
		r[2], err = o.run(o.amfPoint(ues, m, packed), rt.ConfigFor(16), warm, window)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		rtc, il, dp := r[0], r[1], r[2]
		_, _, rtcLLC := rtc.MissesPerPacket()
		_, _, ilLLC := il.MissesPerPacket()
		label := traffic.AMFMessageName(uint8(i))
		if i == 0 {
			label = "FullCallFlow"
		}
		t.AddRow(label, stats.F(rtc.Mpps()*1000, 1), stats.F(il.Mpps()*1000, 1), stats.F(il.Mpps()/rtc.Mpps(), 2),
			stats.F(dp.Mpps()*1000, 1), stats.F(dp.Mpps()/il.Mpps(), 2), stats.F(rtcLLC, 2), stats.F(ilLLC, 2))
	}
	return []*stats.Table{t}, nil
}

// Fig13 reproduces Figure 13: SFCs of length 2–6 under RTC, the
// interleaved model, +data packing (fused per-flow pools), and
// +redundant matching removal — the full compiler-optimization ladder,
// with MR's ~6x at length 6 coming from eliminating five of the six
// pointer-chasing classifier walks.
func Fig13(o Options) ([]*stats.Table, error) {
	flows := o.pick(1<<17, 1<<12)
	warm := o.pickU(15000, 1500)
	window := o.pickU(80000, 6000)

	lengths := []int{2, 3, 4, 5, 6}
	if o.Quick {
		lengths = []int{2, 4, 6}
	}

	t := stats.NewTable(
		"Figure 13(a,b) — SFC throughput by chain length (130K flows, 64B, 1 core, 16 NFTasks)",
		"len", "rtc-gbps", "il16-gbps", "il+dp-gbps", "il+dp+mr-gbps", "mr-speedup-vs-rtc")
	t2 := stats.NewTable(
		"Figure 13(c) — SFC IPC by configuration",
		"len", "rtc-ipc", "il16-ipc", "il+dp-ipc", "il+dp+mr-ipc")

	// The ladder: RTC over the plain chain, then 16 interleaved
	// NFTasks, + data packing (fused pools), + redundant matching
	// removal.
	ladder := [4]struct {
		fused bool
		opts  compile.SFCOptions
		cfg   rt.Config
	}{
		{false, compile.SFCOptions{}, rt.RTCConfig()},
		{false, compile.SFCOptions{}, rt.ConfigFor(16)},
		{true, compile.SFCOptions{}, rt.ConfigFor(16)},
		{true, compile.SFCOptions{RemoveRedundantMatching: true}, rt.ConfigFor(16)},
	}
	results, err := sweep(o, len(lengths), func(i int) (r [len(ladder)]rt.Result, err error) {
		for k, step := range ladder {
			if r[k], err = o.run(o.sfcPoint(lengths[i], flows, step.fused, step.opts), step.cfg, warm, window); err != nil {
				return r, err
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		gbps, ipc := []string{stats.I(lengths[i])}, []string{stats.I(lengths[i])}
		for _, res := range r {
			gbps = append(gbps, stats.F(res.Gbps(), 2))
			ipc = append(ipc, stats.F(res.Counters.IPC(), 2))
		}
		t.AddRow(append(gbps, stats.F(r[len(r)-1].Gbps()/r[0].Gbps(), 2))...)
		t2.AddRow(ipc...)
	}
	return []*stats.Table{t, t2}, nil
}
