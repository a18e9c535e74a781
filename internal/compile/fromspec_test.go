package compile

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/spec"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// The paper's Listings 1, 2, 3 and 4: the NAT built from specs and an
// NF-C flow-mapper implementation.
const (
	classifierSpecSrc = `
name: flow_classifier
category: StatefulClassifier
parameters:
  - header_type
transitions:
  - Start,packet->get_key
  - get_key,get_key_done->hash_1
  - hash_1,hash_done->check_1
  - check_1,MATCH_SUCCESS->End
  - check_1,check_failure->hash_2
  - hash_2,sec_hash_done->check_2
  - check_2,MATCH_SUCCESS->End
  - check_2,MATCH_FAIL->End
fetch:
  check_1:
    - bucket
  check_2:
    - bucket
`
	mapperSpecSrc = `
name: flow_mapper
category: StatefulNF
transitions:
  - Start,MATCH_SUCCESS->flow_mapper
  - flow_mapper,packet->End
states:
  flow_mapper:
    - ip
    - port
`
	natSpecSrc = `
name: nat
chain:
  - flow_classifier
  - flow_mapper
`
	mapperImplSrc = `
// Implementation Using NF-C
NFAction(flow_mapper) {
  Packet.src_ip = PerFlowState.ip;
  Packet.src_port = PerFlowState.port;
  Emit(Event_Packet);
}
`
)

func compileSpecNAT(t *testing.T, flows int) (*SpecResult, *mem.AddressSpace) {
	t.Helper()
	cls, err := spec.ParseModule(classifierSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := spec.ParseModule(mapperSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	nfSpec, err := spec.ParseNF(natSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace()
	res, err := FromSpec(as, SpecUnit{
		Modules:   map[string]*spec.Module{"flow_classifier": cls, "flow_mapper": mapper},
		NF:        nfSpec,
		NFCSource: mapperImplSrc,
		MaxFlows:  flows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, as
}

func TestFromSpecBuildsNAT(t *testing.T) {
	res, _ := compileSpecNAT(t, 64)
	if res.Program == nil || res.Table == nil {
		t.Fatal("incomplete result")
	}
	// Classifier (3 CS) + mapper (1 CS) + End.
	if res.Program.NumCS() != 5 {
		t.Fatalf("NumCS = %d, want 5", res.Program.NumCS())
	}
	if _, ok := res.Stores["flow_mapper"]; !ok {
		t.Fatal("mapper store missing")
	}
}

func TestFromSpecNATProcessesPackets(t *testing.T) {
	const flows, packets = 64, 1000
	res, _ := compileSpecNAT(t, flows)
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	store := res.Stores["flow_mapper"]
	ipIdx := 0
	portIdx := 1
	for i := 0; i < flows; i++ {
		if err := res.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
		if err := store.Set(i, ipIdx, uint64(0xC0000200+i)); err != nil {
			t.Fatal(err)
		}
		if err := store.Set(i, portIdx, uint64(20000+i)); err != nil {
			t.Fatal(err)
		}
	}

	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), res.Program, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Run(g, packets)
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets != packets {
		t.Fatalf("processed %d packets", r.Packets)
	}
}

// TestSpecAddFlowRefusesBadInstalls: SpecResult.AddFlow follows the
// flow table's install rule. An index past the per-flow pools is
// refused, naming the index and the bound, instead of panicking on the
// flow's first packet; a tuple whose classifier key is installed at
// another index is refused, naming both indexes, instead of re-pointing
// that flow's entry (the crafted pair of TestAddFlowRefusesInstalledKey
// in internal/nf); re-installing at the same index is allowed.
func TestSpecAddFlowRefusesBadInstalls(t *testing.T) {
	res, _ := compileSpecNAT(t, 4)
	x := pkt.FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 443, Proto: pkt.ProtoUDP}
	y := pkt.FiveTuple{SrcIP: 0x06000001, DstIP: 0xc0a80001, SrcPort: 2048, DstPort: 443, Proto: pkt.ProtoUDP}
	if x.Hash() != y.Hash() {
		t.Fatalf("%v and %v no longer share a key", x, y)
	}
	for _, idx := range []int32{4, -1} {
		err := res.AddFlow(x, idx)
		if err == nil {
			t.Fatalf("AddFlow at index %d accepted by a 4-flow program", idx)
		}
		if msg := err.Error(); !strings.Contains(msg, "flow index") || !strings.Contains(msg, "[0,4)") {
			t.Fatalf("error %q does not name the index and its bound", msg)
		}
	}
	if err := res.AddFlow(x, 0); err != nil {
		t.Fatal(err)
	}
	err := res.AddFlow(y, 1)
	if err == nil {
		t.Fatalf("AddFlow(%v, 1) accepted a key installed at flow 0", y)
	}
	if msg := err.Error(); !strings.Contains(msg, "flow index 1") || !strings.Contains(msg, "flow index 0") {
		t.Fatalf("error %q does not name both flow indexes", msg)
	}
	if idx, ok := res.Table.Lookup(x.Hash()); !ok || idx != 0 {
		t.Fatalf("key of %v maps to %d,%v after the refused install, want 0,true", x, idx, ok)
	}
	if err := res.AddFlow(x, 0); err != nil {
		t.Fatalf("re-installing %v at its own index: %v", x, err)
	}
}

func TestFromSpecRewriteMatchesMapping(t *testing.T) {
	res, _ := compileSpecNAT(t, 4)
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AddFlow(g.FlowTuple(0), 0); err != nil {
		t.Fatal(err)
	}
	store := res.Stores["flow_mapper"]
	if err := store.Set(0, 0, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if err := store.Set(0, 1, 5555); err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), res.Program, rt.RTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := g.Next()
	if _, err := w.Run(&oneShotSource{p: p}, 0); err != nil {
		t.Fatal(err)
	}
	if p.Tuple.SrcIP != 0x11223344 || p.Tuple.SrcPort != 5555 {
		t.Fatalf("NF-C mapper did not rewrite: %+v", p.Tuple)
	}
}

type oneShotSource struct {
	p    *pkt.Packet
	sent bool
}

func (s *oneShotSource) Next() *pkt.Packet {
	if s.sent {
		return nil
	}
	s.sent = true
	return s.p
}

func TestFromSpecErrors(t *testing.T) {
	cls, err := spec.ParseModule(classifierSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := spec.ParseModule(mapperSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	nfSpec, err := spec.ParseNF(natSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]*spec.Module{"flow_classifier": cls, "flow_mapper": mapper}
	as := mem.NewAddressSpace()

	if _, err := FromSpec(as, SpecUnit{Modules: mods, NF: nil, MaxFlows: 8}); err == nil {
		t.Fatal("nil composition accepted")
	}
	if _, err := FromSpec(as, SpecUnit{Modules: mods, NF: nfSpec, NFCSource: mapperImplSrc, MaxFlows: 0}); err == nil {
		t.Fatal("zero MaxFlows accepted")
	}
	if _, err := FromSpec(as, SpecUnit{Modules: nil, NF: nfSpec, NFCSource: mapperImplSrc, MaxFlows: 8}); err == nil {
		t.Fatal("unknown module accepted")
	}
	if _, err := FromSpec(as, SpecUnit{Modules: mods, NF: nfSpec, NFCSource: "", MaxFlows: 8}); err == nil {
		t.Fatal("missing NF-C implementation accepted")
	}
	// Classifier not first.
	badNF, err := spec.ParseNF("name: x\nchain:\n  - flow_mapper\n  - flow_classifier")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec(as, SpecUnit{Modules: mods, NF: badNF, NFCSource: mapperImplSrc, MaxFlows: 8}); err == nil {
		t.Fatal("classifier in non-first stage accepted")
	}
	// No classifier at all: nothing would set the mapper's flow index.
	noCls, err := spec.ParseNF("name: x\nchain:\n  - flow_mapper")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec(as, SpecUnit{Modules: mods, NF: noCls, NFCSource: mapperImplSrc, MaxFlows: 8}); err == nil {
		t.Fatal("chain without a classifier accepted")
	}
}

// prefetchHash folds the line address of every prefetch a core issues
// into one FNV-1a-style hash.
type prefetchHash struct{ h uint64 }

func (p *prefetchHash) Event(ev sim.TraceEvent) {
	if ev.Kind == sim.TracePrefetchIssued {
		p.h = (p.h ^ ev.A) * 1099511628211
	}
}

// TestFromSpecAddressTrace pins where FromSpec places state: the line
// addresses of every prefetch over 500 packets, folded into one hash.
// Reserving the control region before the per-flow pool, resizing a
// record or moving the rx ring changes the hash, though the
// nfc-pipeline example's two-decimal Gbps may not move.
func TestFromSpecAddressTrace(t *testing.T) {
	const flows, packets, want = 256, 500, uint64(12410474141050102405)
	res, as := compileSpecNAT(t, flows)
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		if err := res.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := &prefetchHash{h: 14695981039346656037}
	core.SetTracer(trace)
	w, err := rt.NewWorker(core, as, res.Program, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g, packets); err != nil {
		t.Fatal(err)
	}
	if trace.h != want {
		t.Fatalf("prefetch address hash = %d, want %d", trace.h, want)
	}
}
