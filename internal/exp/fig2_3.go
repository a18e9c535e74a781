package exp

import (
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/amf"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/stats"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Fig2 reproduces EXP A (Figure 2): the per-packet RTC UPF degrading as
// concurrency grows — more PFCP sessions and more PDRs mean more
// matching state, colder caches, and a higher per-packet cost.
func Fig2(o Options) ([]*stats.Table, error) {
	warm := o.pickU(20000, 2000)
	window := o.pickU(120000, 8000)

	sessionsSweep := []int{1 << 10, 1 << 13, 1 << 15, 1 << 17}
	if o.Quick {
		sessionsSweep = []int{1 << 9, 1 << 11, 1 << 13}
	}
	t1 := stats.NewTable(
		"Figure 2(a) — RTC UPF vs PFCP session count (PDRs=16, 64B packets, 1 core)",
		"sessions", "gbps", "mpps", "cyc/pkt", "l1miss/pkt", "llcmiss/pkt", "state-access%")
	rows1 := make([][]string, len(sessionsSweep))
	if err := o.forEach(len(sessionsSweep), func(i int) error {
		sessions := sessionsSweep[i]
		res, err := o.run(o.deploy(deploy.Spec{NF: "upf-downlink", Flows: sessions, PDRs: 16}), rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		l1, _, llc := res.MissesPerPacket()
		rows1[i] = []string{
			stats.I(sessions),
			stats.F(res.Gbps(), 2),
			stats.F(res.Mpps(), 2),
			stats.F(res.CyclesPerPacket(), 1),
			stats.F(l1, 2),
			stats.F(llc, 2),
			stats.Pct(float64(res.AccessCycles) / float64(res.Cycles)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows1 {
		t1.AddRow(row...)
	}

	pdrSweep := []int{2, 8, 16, 32, 64}
	if o.Quick {
		pdrSweep = []int{2, 16, 64}
	}
	fixedSessions := o.pick(1<<15, 1<<11)
	t2 := stats.NewTable(
		"Figure 2(b) — RTC UPF vs PDRs per session (sessions=2^15, 64B packets, 1 core)",
		"pdrs", "gbps", "mpps", "cyc/pkt", "l1miss/pkt", "llcmiss/pkt")
	rows2 := make([][]string, len(pdrSweep))
	if err := o.forEach(len(pdrSweep), func(i int) error {
		pdrs := pdrSweep[i]
		res, err := o.run(o.deploy(deploy.Spec{NF: "upf-downlink", Flows: fixedSessions, PDRs: pdrs}), rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		l1, _, llc := res.MissesPerPacket()
		rows2[i] = []string{
			stats.I(pdrs),
			stats.F(res.Gbps(), 2),
			stats.F(res.Mpps(), 2),
			stats.F(res.CyclesPerPacket(), 1),
			stats.F(l1, 2),
			stats.F(llc, 2),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows2 {
		t2.AddRow(row...)
	}
	return []*stats.Table{t1, t2}, nil
}

// amfPoint is the AMF over ues UEs, its state laid out by layout (nil =
// the declared field order), under a workload of one message type (0 =
// the full registration call flow) at the run's seed.
func (o Options) amfPoint(ues int, msg uint8, layout *mem.Layout) deployable {
	return func(as *mem.AddressSpace) (*model.Program, rt.Source, error) {
		a, err := amf.New(as, amf.Config{MaxUEs: ues, Layout: layout})
		if err != nil {
			return nil, nil, err
		}
		prog, err := a.Program()
		if err != nil {
			return nil, nil, err
		}
		g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: ues, MsgType: msg, Seed: o.Seed})
		return prog, g, err
	}
}

// Fig3 reproduces EXP B (Figure 3): the state-complexity cost of the
// RTC AMF — per message type of the UE initial registration, the share
// of time in state access and the cache misses per message against a
// >20-cache-line UE context.
func Fig3(o Options) ([]*stats.Table, error) {
	ues := o.pick(1<<17, 1<<12)
	warm := o.pickU(10000, 1000)
	window := o.pickU(60000, 5000)

	t := stats.NewTable(
		"Figure 3 — RTC AMF state-intensive registration messages (UEs=2^17, 1 core)",
		"message", "kmsg/s", "cyc/msg", "state-access%", "l1miss/msg", "l2miss/msg", "llcmiss/msg")
	rows := make([][]string, traffic.NumAMFMessages)
	if err := o.forEach(traffic.NumAMFMessages, func(i int) error {
		m := uint8(i + 1)
		res, err := o.run(o.amfPoint(ues, m, nil), rt.RTCConfig(), warm, window)
		if err != nil {
			return err
		}
		l1, l2, llc := res.MissesPerPacket()
		rows[i] = []string{
			traffic.AMFMessageName(m),
			stats.F(res.Mpps()*1000, 1),
			stats.F(res.CyclesPerPacket(), 1),
			stats.Pct(float64(res.AccessCycles) / float64(res.Cycles)),
			stats.F(l1, 2),
			stats.F(l2, 2),
			stats.F(llc, 2),
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
