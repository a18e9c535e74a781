package nf

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

func TestBuildStates(t *testing.T) {
	as := mem.NewAddressSpace()
	st, err := BuildStates(as, "x", []mem.Field{{Name: "a", Size: 8}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerFlow.Count() != 16 {
		t.Fatalf("pool count = %d", st.PerFlow.Count())
	}
	if st.Control.Size != 64 {
		t.Fatalf("control size = %d", st.Control.Size)
	}
	if off, err := st.PerFlowLayout.Offset("a"); err != nil || off != 0 {
		t.Fatalf("per-flow layout: a at %d, %v", off, err)
	}
	if st.SubFlow != nil || st.SubFlowLayout != nil {
		t.Fatal("five-tuple binding has sub-flow state")
	}
	if _, err := BuildStates(as, "bad", nil, 16); err == nil {
		t.Fatal("empty fields accepted")
	}
	if _, err := BuildStates(as, "bad", []mem.Field{{Name: "a", Size: 8}}, 0); err == nil {
		t.Fatal("zero flows accepted")
	}
}

// classifierProgram wires a lone classifier into a minimal program: a
// hit lands in a terminal "sink" state, a miss drops.
func classifierProgram(t *testing.T, table *dstruct.Cuckoo, keyFn func(*pkt.Packet) uint64) (*model.Program, *int32) {
	t.Helper()
	b := model.NewBuilder("cls-test")
	var lastFlow int32 = -1
	evDone := model.EvDone
	b.AddModule("sink", model.Binding{})
	b.AddState("sink", "take", model.Action{
		Name: "take",
		Fn: func(e *model.Exec) model.EventID {
			lastFlow = e.FlowIdx
			return evDone
		},
	})
	b.AddTransition("sink.take", "done", model.EndName)
	cls := Classifier{Table: table, Module: "cls", KeyFn: keyFn}
	entry := cls.Attach(b, "sink.take", model.EndName)
	b.SetStart(entry)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, &lastFlow
}

func runOnce(t *testing.T, prog *model.Program, p *pkt.Packet) {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &model.Exec{Core: core}
	e.ResetStream(p, prog.Start(), 0)
	for i := 0; !e.Done; i++ {
		if err := prog.Step(e); err != nil {
			t.Fatal(err)
		}
		if i > 20 {
			t.Fatal("classifier did not terminate")
		}
	}
}

func TestClassifierHitSetsFlowIdx(t *testing.T) {
	as := mem.NewAddressSpace()
	table, err := dstruct.NewCuckoo(as, "t", 64)
	if err != nil {
		t.Fatal(err)
	}
	tuple := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	if err := table.Insert(tuple.Hash(), 7); err != nil {
		t.Fatal(err)
	}
	prog, lastFlow := classifierProgram(t, table, nil)
	p := &pkt.Packet{Addr: 0x4000, Tuple: tuple, WireLen: 64, Data: make([]byte, 64)}
	runOnce(t, prog, p)
	if *lastFlow != 7 {
		t.Fatalf("FlowIdx = %d, want 7", *lastFlow)
	}
}

func TestClassifierMissEnds(t *testing.T) {
	as := mem.NewAddressSpace()
	table, err := dstruct.NewCuckoo(as, "t", 64)
	if err != nil {
		t.Fatal(err)
	}
	prog, lastFlow := classifierProgram(t, table, nil)
	p := &pkt.Packet{Addr: 0x4000, Tuple: pkt.FiveTuple{SrcIP: 9}, WireLen: 64, Data: make([]byte, 64)}
	runOnce(t, prog, p)
	if *lastFlow != -1 {
		t.Fatalf("miss reached sink with FlowIdx %d", *lastFlow)
	}
}

func TestClassifierCustomKey(t *testing.T) {
	as := mem.NewAddressSpace()
	table, err := dstruct.NewCuckoo(as, "t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Insert(42, 3); err != nil {
		t.Fatal(err)
	}
	prog, lastFlow := classifierProgram(t, table, func(p *pkt.Packet) uint64 {
		return uint64(p.TEID)
	})
	p := &pkt.Packet{Addr: 0x4000, TEID: 42, WireLen: 64, Data: make([]byte, 64)}
	runOnce(t, prog, p)
	if *lastFlow != 3 {
		t.Fatalf("FlowIdx = %d, want 3 via custom key", *lastFlow)
	}
}

func TestClassifierStagesPrefetchableAddresses(t *testing.T) {
	// After get_key the cursor must point inside the match table so the
	// runtime can prefetch the bucket before check_1 runs.
	as := mem.NewAddressSpace()
	table, err := dstruct.NewCuckoo(as, "t", 64)
	if err != nil {
		t.Fatal(err)
	}
	tuple := pkt.FiveTuple{SrcIP: 5}
	if err := table.Insert(tuple.Hash(), 0); err != nil {
		t.Fatal(err)
	}
	prog, _ := classifierProgram(t, table, nil)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &model.Exec{Core: core}
	e.ResetStream(&pkt.Packet{Addr: 0x4000, Tuple: tuple, Data: make([]byte, 64)}, prog.Start(), 0)
	if err := prog.Step(e); err != nil { // get_key
		t.Fatal(err)
	}
	if !table.Region().Contains(e.Cur.Addr, sim.LineBytes) {
		t.Fatalf("cursor %#x not inside match table after get_key", e.Cur.Addr)
	}
}

func TestPacketHeaderSpan(t *testing.T) {
	ref := PacketHeaderSpan()
	if ref.Explicit == nil {
		t.Fatal("header span must be explicit")
	}
	if ref.Explicit.Size < pkt.EthLen+pkt.IPv4Len {
		t.Fatalf("header span %d too small", ref.Explicit.Size)
	}
}
