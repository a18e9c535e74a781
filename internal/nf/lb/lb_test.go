package lb

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(mem.NewAddressSpace(), Config{MaxFlows: 0}); err == nil {
		t.Fatal("zero MaxFlows accepted")
	}
}

func run(t *testing.T, l *LB, src rtcSource, n uint64) {
	t.Helper()
	prog, err := l.Program()
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

type rtcSource interface{ Next() *pkt.Packet }

func TestSteeringIsFlowConsistent(t *testing.T) {
	l, err := New(mem.NewAddressSpace(), Config{MaxFlows: 64, Backends: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 64, PacketBytes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := l.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	run(t, l, g, 500)
	var pkts uint64
	for i := int32(0); i < 64; i++ {
		f, err := l.Flow(i)
		if err != nil {
			t.Fatal(err)
		}
		pkts += f.Pkts
		if f.Pkts > 0 && (f.Backend < 0 || int(f.Backend) >= 4) {
			t.Fatalf("flow %d bound to invalid backend %d", i, f.Backend)
		}
	}
	if pkts != 500 {
		t.Fatalf("flow counters sum to %d, want 500", pkts)
	}
}

func TestNewFlowPicksBackend(t *testing.T) {
	l, err := New(mem.NewAddressSpace(), Config{MaxFlows: 8, Backends: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	run(t, l, g, 3)
	f, err := l.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pkts != 3 {
		t.Fatalf("dataplane-allocated flow pkts = %d, want 3", f.Pkts)
	}
	if want := l.backendFor(g.FlowTuple(0)); f.Backend != want {
		t.Fatalf("allocation bound backend %d, want the tuple's pick %d", f.Backend, want)
	}
}

func TestAddFlowBounds(t *testing.T) {
	l, err := New(mem.NewAddressSpace(), Config{MaxFlows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AddFlow(pkt.FiveTuple{}, 2); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := l.Flow(5); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if l.Name() != "lb" {
		t.Fatalf("Name = %q", l.Name())
	}
}

func TestBackendDeterministic(t *testing.T) {
	l, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4, Backends: 8})
	if err != nil {
		t.Fatal(err)
	}
	tu := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if l.backendFor(tu) != l.backendFor(tu) {
		t.Fatal("backend pick not deterministic")
	}
}
