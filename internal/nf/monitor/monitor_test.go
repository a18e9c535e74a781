package monitor

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func run(t *testing.T, m *Monitor, src interface{ Next() *pkt.Packet }, n uint64) {
	t.Helper()
	prog, err := m.Program()
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.RTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(src, n); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(mem.NewAddressSpace(), Config{MaxFlows: 0}); err == nil {
		t.Fatal("zero MaxFlows accepted")
	}
}

func TestAccounting(t *testing.T) {
	m, err := New(mem.NewAddressSpace(), Config{MaxFlows: 16})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 16, PacketBytes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := m.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	run(t, m, g, 400)
	tot := m.Totals()
	if tot.Pkts != 400 {
		t.Fatalf("total pkts = %d, want 400", tot.Pkts)
	}
	if tot.Bytes != 400*64 {
		t.Fatalf("total bytes = %d, want %d", tot.Bytes, 400*64)
	}
	var perFlow, small uint64
	for i := int32(0); i < 16; i++ {
		f, err := m.Flow(i)
		if err != nil {
			t.Fatal(err)
		}
		perFlow += f.Pkts
		small += f.SmallPkts
	}
	if perFlow != 400 {
		t.Fatalf("per-flow pkts sum to %d", perFlow)
	}
	if small != 400 {
		t.Fatalf("64B packets must all count as small: %d", small)
	}
}

func TestLargePacketsNotSmall(t *testing.T) {
	m, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 4, PacketBytes: 1024, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	run(t, m, g, 40)
	for i := int32(0); i < 4; i++ {
		f, _ := m.Flow(i)
		if f.SmallPkts != 0 {
			t.Fatalf("flow %d counted %d small packets for 1024B traffic", i, f.SmallPkts)
		}
	}
}

func TestUnseenFlowRegisters(t *testing.T) {
	m, err := New(mem.NewAddressSpace(), Config{MaxFlows: 8})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, g, 5)
	f, err := m.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pkts != 5 {
		t.Fatalf("auto-registered flow pkts = %d, want 5", f.Pkts)
	}
}

func TestBounds(t *testing.T) {
	m, err := New(mem.NewAddressSpace(), Config{MaxFlows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFlow(pkt.FiveTuple{}, 7); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := m.Flow(7); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if m.Name() != "nm" {
		t.Fatal("accessors broken")
	}
}
