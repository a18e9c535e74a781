package compile

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/fw"
	"github.com/gunfu-nfv/gunfu/internal/nf/lb"
	"github.com/gunfu-nfv/gunfu/internal/nf/monitor"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func TestPackLayoutClustersHotFields(t *testing.T) {
	fields := []mem.Field{
		{Name: "hot_a", Size: 8},
		{Name: "cold_1", Size: 120},
		{Name: "hot_b", Size: 8},
		{Name: "cold_2", Size: 120},
		{Name: "hot_c", Size: 8},
	}
	groups := [][]string{{"hot_a", "hot_b", "hot_c"}}

	natural, err := mem.NewLayout(fields...)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := PackLayout(fields, groups)
	if err != nil {
		t.Fatal(err)
	}
	nNat, err := natural.LinesTouched(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	nPack, err := packed.LinesTouched(groups[0])
	if err != nil {
		t.Fatal(err)
	}
	if nPack != 1 {
		t.Fatalf("packed hot fields span %d lines, want 1", nPack)
	}
	if nPack >= nNat {
		t.Fatalf("packing did not reduce lines: natural %d, packed %d", nNat, nPack)
	}
	// All fields must still be present and non-overlapping (PackedLayout
	// validates overlap internally).
	for _, f := range fields {
		if _, err := packed.Offset(f.Name); err != nil {
			t.Fatalf("field %s lost: %v", f.Name, err)
		}
	}
}

func TestPackLayoutErrors(t *testing.T) {
	fields := []mem.Field{{Name: "a", Size: 8}}
	if _, err := PackLayout(fields, [][]string{{"ghost"}}); err == nil {
		t.Fatal("unknown group field accepted")
	}
	dup := []mem.Field{{Name: "a", Size: 8}, {Name: "a", Size: 8}}
	if _, err := PackLayout(dup, nil); err == nil {
		t.Fatal("duplicate field accepted")
	}
}

func TestPackLayoutColdOnly(t *testing.T) {
	fields := []mem.Field{{Name: "a", Size: 8}, {Name: "b", Size: 8}}
	packed, err := PackLayout(fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Size() < 16 {
		t.Fatalf("Size = %d", packed.Size())
	}
}

func TestPackLayoutRespectsFrequency(t *testing.T) {
	// "a" is accessed by three actions, "z" by one; both plus enough
	// bulk that they cannot all share a line. "a" must land in the
	// first line.
	fields := []mem.Field{
		{Name: "a", Size: 8},
		{Name: "bulk1", Size: 56},
		{Name: "z", Size: 8},
	}
	groups := [][]string{{"a", "bulk1"}, {"a"}, {"a"}, {"z", "bulk1"}}
	packed, err := PackLayout(fields, groups)
	if err != nil {
		t.Fatal(err)
	}
	off, err := packed.Offset("a")
	if err != nil {
		t.Fatal(err)
	}
	if off >= sim.LineBytes {
		t.Fatalf("hottest field at offset %d, want first line", off)
	}
}

func buildChain(t *testing.T, as *mem.AddressSpace, flows int, fused bool) []Chainable {
	t.Helper()
	// Unfused, the map stays nil and every NF reserves its own pool.
	var fusedStates map[string]*model.Binding
	if fused {
		members := []FuseMember{
			{Name: "lb", Fields: lb.FlowFields(), Hot: lb.HotFields()},
			{Name: "nat", Fields: nat.FlowFields(), Hot: nat.HotFields()},
			{Name: "nm", Fields: monitor.FlowFields(), Hot: monitor.HotFields()},
			{Name: "fw", Fields: fw.FlowFields(), Hot: fw.HotFields()},
		}
		var err error
		fusedStates, err = FuseStates(as, "sfc", members, flows)
		if err != nil {
			t.Fatal(err)
		}
	}
	l, err := lb.New(as, lb.Config{MaxFlows: flows, States: fusedStates["lb"]})
	if err != nil {
		t.Fatal(err)
	}
	n, err := nat.New(as, nat.Config{MaxFlows: flows, States: fusedStates["nat"]})
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(as, monitor.Config{MaxFlows: flows, States: fusedStates["nm"]})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fw.New(as, fw.Config{MaxFlows: flows, States: fusedStates["fw"]})
	if err != nil {
		t.Fatal(err)
	}
	return []Chainable{l, n, m, f}
}

func TestBuildSFCValidation(t *testing.T) {
	if _, err := BuildSFC("x", nil, SFCOptions{}); err == nil {
		t.Fatal("empty chain accepted")
	}
	as := mem.NewAddressSpace()
	n1, err := nat.New(as, nat.Config{Name: "same", MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := nat.New(as, nat.Config{Name: "same", MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSFC("x", []Chainable{n1, n2}, SFCOptions{}); err == nil {
		t.Fatal("duplicate NF names accepted")
	}
}

// TestMRRefusesMismatchedFlowSpaces: redundant matching removal hands
// the head's flow index to every NF after it, so a downstream NF with
// fewer flows than the head would be indexed past its records (the
// monitor's data action panicked on flow 4). BuildSFC refuses the chain,
// naming the member and both sizes. Without MR each NF classifies on
// its own, so the same chain runs: 64 round-robin packets over 8 flows,
// of which the monitor's table holds 4, drop 32 at the monitor.
func TestMRRefusesMismatchedFlowSpaces(t *testing.T) {
	const flows, small, packets = 8, 4, 64
	build := func() []Chainable {
		as := mem.NewAddressSpace()
		n, err := nat.New(as, nat.Config{MaxFlows: flows})
		if err != nil {
			t.Fatal(err)
		}
		m, err := monitor.New(as, monitor.Config{MaxFlows: small})
		if err != nil {
			t.Fatal(err)
		}
		return []Chainable{n, m}
	}
	_, err := BuildSFC("mr", build(), SFCOptions{RemoveRedundantMatching: true})
	if err == nil {
		t.Fatal("MR build accepted a 4-flow monitor behind an 8-flow NAT")
	}
	for _, w := range []string{"nm has 4 flows", "nat has 8"} {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not name %q", err, w)
		}
	}

	chain := build()
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderRoundRobin, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if res := runSFC(t, chain, SFCOptions{}, g, packets, false); res.Packets != packets {
		t.Fatalf("processed %d packets, want %d", res.Packets, packets)
	}
	if got, want := chain[1].(*monitor.Monitor).Drops(), uint64(packets/2); got != want {
		t.Fatalf("monitor dropped %d packets, want %d", got, want)
	}
}

func runSFC(t *testing.T, chain []Chainable, opts SFCOptions, g rt.Source, packets uint64, interleaved bool) rt.Result {
	t.Helper()
	prog, err := BuildSFC("sfc", chain, opts)
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if interleaved {
		w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(g, packets)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.RTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(g, packets)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func populate(t *testing.T, chain []Chainable, g *traffic.FlowGen, flows int) {
	t.Helper()
	tuples := make([]pkt.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	if err := PopulateFlows(chain, tuples); err != nil {
		t.Fatal(err)
	}
}

func newGen(t *testing.T, flows int) *traffic.FlowGen {
	t.Helper()
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSFCRunsAllNFs(t *testing.T) {
	const flows, packets = 128, 1500
	as := mem.NewAddressSpace()
	chain := buildChain(t, as, flows, false)
	g := newGen(t, flows)
	populate(t, chain, g, flows)

	res := runSFC(t, chain, SFCOptions{}, g, packets, false)
	if res.Packets != packets {
		t.Fatalf("processed %d packets", res.Packets)
	}
	// Every NF's counters must see every packet.
	nm := chain[2].(*monitor.Monitor)
	if nm.Totals().Pkts != packets {
		t.Fatalf("monitor saw %d packets, want %d", nm.Totals().Pkts, packets)
	}
	fwNF := chain[3].(*fw.FW)
	if fwNF.Drops() != 0 {
		t.Fatalf("allow-all firewall dropped %d", fwNF.Drops())
	}
}

func TestMRReducesControlStates(t *testing.T) {
	const flows = 64
	as1 := mem.NewAddressSpace()
	full := buildChain(t, as1, flows, false)
	g := newGen(t, flows)
	populate(t, full, g, flows)
	progFull, err := BuildSFC("sfc", full, SFCOptions{})
	if err != nil {
		t.Fatal(err)
	}

	as2 := mem.NewAddressSpace()
	mr := buildChain(t, as2, flows, false)
	populate(t, mr, newGen(t, flows), flows)
	progMR, err := BuildSFC("sfc", mr, SFCOptions{RemoveRedundantMatching: true})
	if err != nil {
		t.Fatal(err)
	}

	if progMR.NumCS() >= progFull.NumCS() {
		t.Fatalf("MR did not reduce states: %d vs %d", progMR.NumCS(), progFull.NumCS())
	}
}

func TestMRPreservesSemantics(t *testing.T) {
	const flows, packets = 128, 2000

	results := make([]*monitor.Monitor, 2)
	for i, mrOn := range []bool{false, true} {
		as := mem.NewAddressSpace()
		chain := buildChain(t, as, flows, false)
		g := newGen(t, flows)
		populate(t, chain, g, flows)
		runSFC(t, chain, SFCOptions{RemoveRedundantMatching: mrOn}, g, packets, true)
		results[i] = chain[2].(*monitor.Monitor)
	}
	for i := int32(0); i < flows; i++ {
		f0, _ := results[0].Flow(i)
		f1, _ := results[1].Flow(i)
		if f0.Pkts != f1.Pkts || f0.Bytes != f1.Bytes {
			t.Fatalf("flow %d diverged under MR: {%d,%d} vs {%d,%d}",
				i, f0.Pkts, f0.Bytes, f1.Pkts, f1.Bytes)
		}
	}
}

func TestMRFasterThanFullChain(t *testing.T) {
	const flows, packets = 32768, 20000

	run := func(opts SFCOptions) rt.Result {
		as := mem.NewAddressSpace()
		chain := buildChain(t, as, flows, false)
		g := newGen(t, flows)
		populate(t, chain, g, flows)
		prog, err := BuildSFC("sfc", chain, opts)
		if err != nil {
			t.Fatal(err)
		}
		core, err := sim.NewCore(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(g, 4000); err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(g, packets)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(SFCOptions{})
	mr := run(SFCOptions{RemoveRedundantMatching: true})
	if mr.Cycles >= full.Cycles {
		t.Fatalf("MR not faster: %d vs %d cycles", mr.Cycles, full.Cycles)
	}
}

func TestFuseStatesSharedPool(t *testing.T) {
	as := mem.NewAddressSpace()
	members := []FuseMember{
		{Name: "nat", Fields: nat.FlowFields(), Hot: nat.HotFields()},
		{Name: "lb", Fields: lb.FlowFields(), Hot: lb.HotFields()},
	}
	fusedStates, err := FuseStates(as, "x", members, 32)
	if err != nil {
		t.Fatal(err)
	}
	if fusedStates["nat"].PerFlow != fusedStates["lb"].PerFlow {
		t.Fatal("members do not share the fused pool")
	}
	// Hot fields across both NFs must land in fewer lines than two
	// separate one-line records would occupy.
	natHot, err := fusedStates["nat"].PerFlowLayout.LinesTouched(nat.HotFields())
	if err != nil {
		t.Fatal(err)
	}
	lbHot, err := fusedStates["lb"].PerFlowLayout.LinesTouched(lb.HotFields())
	if err != nil {
		t.Fatal(err)
	}
	if natHot > 1 || lbHot > 1 {
		t.Fatalf("fused hot fields span nat=%d lb=%d lines", natHot, lbHot)
	}
}

func TestFuseStatesErrors(t *testing.T) {
	if _, err := FuseStates(mem.NewAddressSpace(), "x", nil, 8); err == nil {
		t.Fatal("empty members accepted")
	}
}

func TestFusedChainSemantics(t *testing.T) {
	const flows, packets = 128, 1500
	as := mem.NewAddressSpace()
	chain := buildChain(t, as, flows, true)
	g := newGen(t, flows)
	populate(t, chain, g, flows)
	runSFC(t, chain, SFCOptions{RemoveRedundantMatching: true}, g, packets, true)
	nm := chain[2].(*monitor.Monitor)
	if nm.Totals().Pkts != packets {
		t.Fatalf("fused chain monitor saw %d packets, want %d", nm.Totals().Pkts, packets)
	}
}

// TestRetiredPRRFieldIsInert holds SFCOptions.RemoveRedundantPrefetches
// to doing nothing, so the retired pass cannot come back through it: the
// MR chain compiles to the same per-CS prefetch spans and runs to the
// same interleaved result with the field set or clear.
func TestRetiredPRRFieldIsInert(t *testing.T) {
	const flows, packets = 128, 2000
	run := func(prr bool) ([][]model.Span, rt.Result) {
		as := mem.NewAddressSpace()
		chain := buildChain(t, as, flows, false)
		g := newGen(t, flows)
		populate(t, chain, g, flows)
		prog, err := BuildSFC("sfc", chain, SFCOptions{RemoveRedundantMatching: true, RemoveRedundantPrefetches: prr})
		if err != nil {
			t.Fatal(err)
		}
		spans := make([][]model.Span, prog.NumCS())
		for i := 1; i < prog.NumCS(); i++ {
			info, err := prog.CS(model.CSID(i))
			if err != nil {
				t.Fatal(err)
			}
			spans[i] = info.Prefetch
		}
		core, err := sim.NewCore(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(g, packets)
		if err != nil {
			t.Fatal(err)
		}
		return spans, res
	}
	offSpans, offRes := run(false)
	onSpans, onRes := run(true)
	if !reflect.DeepEqual(onSpans, offSpans) {
		t.Fatalf("RemoveRedundantPrefetches changed the prefetch plans:\n on %v\noff %v", onSpans, offSpans)
	}
	if onRes != offRes {
		t.Fatalf("RemoveRedundantPrefetches changed the run:\n on %+v\noff %+v", onRes, offRes)
	}
}

func TestPopulateFlowsPropagatesErrors(t *testing.T) {
	as := mem.NewAddressSpace()
	n, err := nat.New(as, nat.Config{MaxFlows: 1})
	if err != nil {
		t.Fatal(err)
	}
	tuples := []pkt.FiveTuple{{SrcIP: 1}, {SrcIP: 2}}
	if err := PopulateFlows([]Chainable{n}, tuples); err == nil {
		t.Fatal("overflow not reported")
	}
}
