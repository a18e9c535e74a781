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
	rows := make([][]string, traffic.NumAMFMessages+1)
	if err := o.forEach(len(rows), func(i int) error {
		m := uint8(i)
		rtcRes, err := o.run(o.amfPoint(ues, m, nil), rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		ilRes, err := o.run(o.amfPoint(ues, m, nil), rt.ConfigFor(16), warm, window)
		if err != nil {
			return err
		}
		dpRes, err := o.run(o.amfPoint(ues, m, packed), rt.ConfigFor(16), warm, window)
		if err != nil {
			return err
		}
		_, _, rtcLLC := rtcRes.MissesPerPacket()
		_, _, ilLLC := ilRes.MissesPerPacket()
		label := traffic.AMFMessageName(m)
		if m == 0 {
			label = "FullCallFlow"
		}
		rows[i] = []string{
			label,
			stats.F(rtcRes.Mpps()*1000, 1),
			stats.F(ilRes.Mpps()*1000, 1),
			stats.F(ilRes.Mpps()/rtcRes.Mpps(), 2),
			stats.F(dpRes.Mpps()*1000, 1),
			stats.F(dpRes.Mpps()/ilRes.Mpps(), 2),
			stats.F(rtcLLC, 2),
			stats.F(ilLLC, 2),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
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

	rows := make([][]string, len(lengths))
	rows2 := make([][]string, len(lengths))
	if err := o.forEach(len(lengths), func(i int) error {
		length := lengths[i]
		// RTC baseline (plain chain, no optimizations).
		rtcRes, err := o.run(o.sfcPoint(length, flows, false, compile.SFCOptions{}), rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		// Interleaved.
		ilRes, err := o.run(o.sfcPoint(length, flows, false, compile.SFCOptions{}), rt.ConfigFor(16), warm, window)
		if err != nil {
			return err
		}
		// Interleaved + data packing (fused pools).
		dpRes, err := o.run(o.sfcPoint(length, flows, true, compile.SFCOptions{}), rt.ConfigFor(16), warm, window)
		if err != nil {
			return err
		}
		// Interleaved + DP + redundant matching removal.
		mrRes, err := o.run(o.sfcPoint(length, flows, true, compile.SFCOptions{RemoveRedundantMatching: true}), rt.ConfigFor(16), warm, window)
		if err != nil {
			return err
		}

		rows[i] = []string{
			stats.I(length),
			stats.F(rtcRes.Gbps(), 2),
			stats.F(ilRes.Gbps(), 2),
			stats.F(dpRes.Gbps(), 2),
			stats.F(mrRes.Gbps(), 2),
			stats.F(mrRes.Gbps()/rtcRes.Gbps(), 2),
		}
		rows2[i] = []string{
			stats.I(length),
			stats.F(rtcRes.Counters.IPC(), 2),
			stats.F(ilRes.Counters.IPC(), 2),
			stats.F(dpRes.Counters.IPC(), 2),
			stats.F(mrRes.Counters.IPC(), 2),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range lengths {
		t.AddRow(rows[i]...)
		t2.AddRow(rows2[i]...)
	}
	return []*stats.Table{t, t2}, nil
}
