package nat

import (
	"runtime"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
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

func TestProgramBuilds(t *testing.T) {
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: 128})
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.Program()
	if err != nil {
		t.Fatal(err)
	}
	// get_key, check_1, check_2, rewrite, alloc, init + End.
	if p.NumCS() != 7 {
		t.Fatalf("NumCS = %d, want 7", p.NumCS())
	}
}

func TestAddFlowBounds(t *testing.T) {
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(pkt.FiveTuple{SrcIP: 1}, 4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := n.AddFlow(pkt.FiveTuple{SrcIP: 1}, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := n.Flow(9); err == nil {
		t.Fatal("out-of-range Flow read accepted")
	}
}

// runOne pushes a single packet through the standalone program under
// RTC and returns the NAT and packet for inspection.
func runOne(t *testing.T, n *NAT, p *pkt.Packet) {
	t.Helper()
	prog, err := n.Program()
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
	src := &sliceSource{pkts: []*pkt.Packet{p}}
	res, err := w.Run(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 1 {
		t.Fatalf("processed %d packets, want 1", res.Packets)
	}
}

type sliceSource struct {
	pkts []*pkt.Packet
	i    int
}

func (s *sliceSource) Next() *pkt.Packet {
	if s.i >= len(s.pkts) {
		return nil
	}
	p := s.pkts[s.i]
	s.i++
	return p
}

func makePacket(t *testing.T, tuple pkt.FiveTuple) *pkt.Packet {
	t.Helper()
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Next()
	// Rebuild for the requested tuple via the generator's first flow.
	p.Tuple = g.FlowTuple(0)
	return p
}

func TestKnownFlowRewrites(t *testing.T) {
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: 16, NATIP: 0x01020304, PortBase: 5000})
	if err != nil {
		t.Fatal(err)
	}
	p := makePacket(t, pkt.FiveTuple{})
	if err := n.AddFlow(p.Tuple, 3); err != nil {
		t.Fatal(err)
	}
	runOne(t, n, p)
	f, err := n.Flow(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pkts != 1 {
		t.Fatalf("flow pkts = %d, want 1", f.Pkts)
	}
	if f.Bytes != 128 {
		t.Fatalf("flow bytes = %d, want 128", f.Bytes)
	}
	if p.Tuple.SrcIP != 0x01020304 || p.Tuple.SrcPort != 5003 {
		t.Fatalf("packet not rewritten: %v", p.Tuple)
	}
	// The rewrite must be on the wire, not just in the parsed view.
	q := &pkt.Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.SrcIP != 0x01020304 || q.Tuple.SrcPort != 5003 {
		t.Fatalf("wire bytes not rewritten: %v", q.Tuple)
	}
}

func TestUnknownFlowAllocates(t *testing.T) {
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := makePacket(t, pkt.FiveTuple{})
	runOne(t, n, p)
	// The first packet of an unknown flow allocates index 0.
	f, err := n.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pkts != 1 {
		t.Fatalf("allocated flow pkts = %d, want 1", f.Pkts)
	}
	// A second packet of the same flow must now match, not re-allocate.
	p2 := makePacket(t, pkt.FiveTuple{})
	runOne(t, n, p2)
	f, err = n.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pkts != 2 {
		t.Fatalf("flow pkts after second packet = %d, want 2", f.Pkts)
	}
}

// TestTableFullDrops fills the table from the control plane: AddFlow
// moves the allocation cursor, so the data plane's next first packet
// finds no room and is dropped.
func TestTableFullDrops(t *testing.T) {
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(pkt.FiveTuple{SrcIP: 99, SrcPort: 9, Proto: 17}, 0); err != nil {
		t.Fatal(err)
	}
	p := makePacket(t, pkt.FiveTuple{})
	runOne(t, n, p) // must complete (dropped), not panic
	if n.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", n.Drops())
	}
	if f, _ := n.Flow(0); f.Pkts != 0 {
		t.Fatal("drop path touched the unrelated flow")
	}
}

// TestRTCAndInterleavedAgree drives the same workload through both
// execution models and checks the per-flow accounting is identical —
// the execution model must change performance, never semantics.
func TestRTCAndInterleavedAgree(t *testing.T) {
	const flows, packets = 256, 2048

	build := func() (*NAT, *model.Program, *traffic.FlowGen) {
		as := mem.NewAddressSpace()
		n, err := New(as, Config{MaxFlows: flows})
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: OrderUniformFor(t), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < flows; i++ {
			if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		prog, err := n.Program()
		if err != nil {
			t.Fatal(err)
		}
		return n, prog, g
	}

	nRTC, progRTC, genRTC := build()
	core1, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1, err := rt.NewWorker(core1, mem.NewAddressSpace(), progRTC, rt.RTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := w1.Run(genRTC, packets)
	if err != nil {
		t.Fatal(err)
	}

	nIL, progIL, genIL := build()
	core2, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := rt.NewWorker(core2, mem.NewAddressSpace(), progIL, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w2.Run(genIL, packets)
	if err != nil {
		t.Fatal(err)
	}

	if r1.Packets != packets || r2.Packets != packets {
		t.Fatalf("packet counts: rtc=%d interleaved=%d", r1.Packets, r2.Packets)
	}
	for i := int32(0); i < flows; i++ {
		f1, _ := nRTC.Flow(i)
		f2, _ := nIL.Flow(i)
		if f1.Pkts != f2.Pkts || f1.Bytes != f2.Bytes {
			t.Fatalf("flow %d diverged: rtc{%d,%d} interleaved{%d,%d}",
				i, f1.Pkts, f1.Bytes, f2.Pkts, f2.Bytes)
		}
	}
}

// OrderUniformFor keeps the test honest about determinism while
// documenting the choice.
func OrderUniformFor(t *testing.T) traffic.FlowOrder {
	t.Helper()
	return traffic.OrderUniform
}

// TestMappingInjective: past the 65536-PortBase ports of NATIP the
// mapping moves on to the next address instead of wrapping, so no two
// flows share a translated (address, port); the rewrite and Translate
// agree on it.
func TestMappingInjective(t *testing.T) {
	const natIP, flows, space = 0x0a000001, 2000, 65536 - 65000
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: flows, NATIP: natIP, PortBase: 65000})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderRoundRobin, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]uint32]int, flows)
	want := make([]pkt.FiveTuple, flows)
	for i := 0; i < flows; i++ {
		out := n.Translate(g.FlowTuple(i), int32(i))
		key := [2]uint32{out.SrcIP, uint32(out.SrcPort)}
		if j, dup := seen[key]; dup {
			t.Fatalf("flows %d and %d both map to %#x:%d", j, i, out.SrcIP, out.SrcPort)
		}
		seen[key] = i
		if i < space && (out.SrcIP != natIP || out.SrcPort != uint16(65000+i)) {
			t.Fatalf("flow %d below the wrap maps to %#x:%d, want %#x:%d", i, out.SrcIP, out.SrcPort, natIP, 65000+i)
		}
		if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	// One packet of every flow, in flow order, through the rewrite.
	src := &rewriteSource{gen: g}
	prog, err := n.Program()
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
	if _, err := w.Run(src, flows); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.out {
		if p.Tuple.SrcIP != want[i].SrcIP || p.Tuple.SrcPort != want[i].SrcPort {
			t.Fatalf("flow %d: rewritten to %#x:%d, Translate maps to %#x:%d", i, p.Tuple.SrcIP, p.Tuple.SrcPort, want[i].SrcIP, want[i].SrcPort)
		}
	}
}

// rewriteSource hands out the generator's packets as private copies and
// keeps them, so their rewritten tuples can be read after the run.
type rewriteSource struct {
	gen *traffic.FlowGen
	out []*pkt.Packet
}

func (s *rewriteSource) Next() *pkt.Packet {
	q := *s.gen.Next()
	q.Data = append([]byte(nil), q.Data...)
	s.out = append(s.out, &q)
	return &q
}

// TestNATHostBytesPerFlow holds the NAT's host footprint: 2^17 flows
// must retain at most 52 bytes of Go heap per flow — a 16-byte record
// (accounting only; the mapping follows from the flow index, and the
// simulated layout keeps it and the cold fields) plus half of a 64-byte
// cuckoo bucket (the table sizes for a 50% load), with slack for the
// race detector's own allocations.
func TestNATHostBytesPerFlow(t *testing.T) {
	const flows, limit = 1 << 17, 52.0
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := New(mem.NewAddressSpace(), Config{MaxFlows: flows})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	runtime.KeepAlive(g)
	got := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / flows
	t.Logf("%.1f B of Go heap per flow", got)
	if got > limit {
		t.Fatalf("New plus AddFlow retains %.1f B per flow at %d flows, want <= %.0f", got, flows, limit)
	}
}
