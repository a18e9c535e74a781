package nf_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/nf/lb"
	"github.com/gunfu-nfv/gunfu/internal/nf/monitor"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// matchTabled is what every flow-table NF promotes from nf.FlowTable's
// test-only accessor.
type matchTabled interface {
	MatchTable() *dstruct.Cuckoo
}

func newFlowGen(t *testing.T, cfg traffic.FlowGenConfig) *traffic.FlowGen {
	t.Helper()
	g, err := traffic.NewFlowGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainFlows is the flow population of the chain tests: uniform 64-B
// traffic, as in sfcWorld.
var chainFlows = traffic.FlowGenConfig{Flows: touchFlows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3}

// newSFC6 builds the six-NF chain over touchFlows flows, fills it with
// populate and compiles it under opts.
func newSFC6(t *testing.T, opts compile.SFCOptions, populate func([]compile.Chainable, []pkt.FiveTuple) error, tuples []pkt.FiveTuple) ([]compile.Chainable, touchWorld) {
	t.Helper()
	as := mem.NewAddressSpace()
	chain, err := deploy.NewChain(as, 6, touchFlows, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := populate(chain, tuples); err != nil {
		t.Fatal(err)
	}
	prog, err := compile.BuildSFC("sfc6", chain, opts)
	if err != nil {
		t.Fatal(err)
	}
	return chain, touchWorld{as: as, prog: prog, state: func() any { return chainState(t, chain, touchFlows) }}
}

// tuplesOf returns the first n flow tuples of cfg's population.
func tuplesOf(t *testing.T, cfg traffic.FlowGenConfig, n int) []pkt.FiveTuple {
	t.Helper()
	g := newFlowGen(t, cfg)
	tuples := make([]pkt.FiveTuple, n)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	return tuples
}

// flowAdder is what every flow-table NF promotes from nf.FlowTable's
// eager install; compile.Chainable does not carry it.
type flowAdder interface {
	AddFlow(tuple pkt.FiveTuple, idx int32) error
}

// addFlowEverywhere is the eager population: AddFlow on every NF, each
// keyed on the tuple as packets reach it.
func addFlowEverywhere(chain []compile.Chainable, tuples []pkt.FiveTuple) error {
	for i, tuple := range tuples {
		for _, c := range chain {
			if err := c.(flowAdder).AddFlow(tuple, int32(i)); err != nil {
				return err
			}
			tuple = c.Translate(tuple, int32(i))
		}
	}
	return nil
}

// TestMRFirstPacketsMatchFullChain: under redundant matching removal the
// NFs after the head have no classifier and no first-packet path, so
// the head installs their records when its own first-packet path
// installs a flow. A flow nobody pre-populated then crosses the MR chain
// as it crosses the full chain, where every NF installs its own record:
// the same frames out, the same drops in each NF, the same records.
// Under RTC nothing is pre-populated. Under IL-16 half the population
// is, and staggeredSource brings in one new flow per burst: two
// in-flight first packets of one flow are ROADMAP item 4.
func TestMRFirstPacketsMatchFullChain(t *testing.T) {
	const packets = 6000
	established := chainFlows
	established.ShardCount = touchFlows / 2
	fresh := chainFlows
	fresh.Order, fresh.ShardBase, fresh.ShardCount = traffic.OrderRoundRobin, touchFlows/2, 64
	for _, tc := range []struct {
		name      string
		installed int
		cfg       rt.Config
		src       func(t *testing.T) rt.Source
	}{
		{"rtc", 0, rt.RTCConfig(), func(t *testing.T) rt.Source { return newFlowGen(t, chainFlows) }},
		{"il16", touchFlows / 2, rt.DefaultConfig(), func(t *testing.T) rt.Source {
			return &staggeredSource{established: newFlowGen(t, established), fresh: newFlowGen(t, fresh), burst: rt.DefaultConfig().Batch}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tuples := tuplesOf(t, chainFlows, tc.installed)
			_, full := newSFC6(t, compile.SFCOptions{}, compile.PopulateFlows, tuples)
			_, mr := newSFC6(t, compile.SFCOptions{RemoveRedundantMatching: true}, compile.PopulateFlows, tuples)
			full.src, mr.src = tc.src, tc.src
			wantOut, wantState := runEquiv(t, full, packets, tc.cfg)
			gotOut, gotState := runEquiv(t, mr, packets, tc.cfg)
			for n := range wantOut {
				if !reflect.DeepEqual(gotOut[n], wantOut[n]) {
					t.Fatalf("packet %d emitted as %+v by the MR chain, %+v by the full chain", n, gotOut[n], wantOut[n])
				}
			}
			if !reflect.DeepEqual(gotState, wantState) {
				t.Fatal("final records or drops differ between the MR chain and the full chain")
			}
		})
	}
}

// traceHash folds every trace event a core emits into one FNV-1a-style
// hash.
type traceHash struct{ h uint64 }

func (x *traceHash) Event(ev sim.TraceEvent) {
	for _, v := range [...]uint64{uint64(ev.Kind), ev.Cycle, ev.A, ev.B, ev.C} {
		x.h = (x.h ^ v) * 1099511628211
	}
}

// TestDeferredEntriesMatchEager: PopulateFlows only logs the classifier
// keys of every chain member, the head's included, and a BuildSFC
// without MR builds each table from its log as the classifier attaches. Every table must come out as
// eager AddFlow calls leave it, bucket for bucket, so every flow
// classifies the same in every NF; and the chain must run one window to
// the same simulated trace, pinned as a hash of every event (the
// bucket a lookup probes first follows from the table's layout).
func TestDeferredEntriesMatchEager(t *testing.T) {
	const packets, wantHash = 2048, uint64(0x160f1ca2f7e91945)
	tuples := tuplesOf(t, chainFlows, touchFlows)
	deferred, dw := newSFC6(t, compile.SFCOptions{}, compile.PopulateFlows, tuples)
	eager, ew := newSFC6(t, compile.SFCOptions{}, addFlowEverywhere, tuples)
	for j := range deferred {
		got, want := deferred[j].(matchTabled).MatchTable(), eager[j].(matchTabled).MatchTable()
		for i, tuple := range tuples {
			for _, c := range deferred[:j] {
				tuple = c.Translate(tuple, int32(i))
			}
			if idx, ok := got.Lookup(tuple.Hash()); !ok || idx != int32(i) {
				t.Fatalf("%s classifies flow %d as %d, %v", deferred[j].Name(), i, idx, ok)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s's table built from its logged keys differs from the eagerly built one", deferred[j].Name())
		}
	}
	for _, w := range []struct {
		name string
		w    touchWorld
	}{{"deferred", dw}, {"eager", ew}} {
		core, err := sim.NewCore(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		trace := &traceHash{h: 14695981039346656037}
		core.SetTracer(trace)
		worker, err := rt.NewWorker(core, w.w.as, w.w.prog, rt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := worker.Run(newFlowGen(t, chainFlows), packets); err != nil {
			t.Fatal(err)
		}
		if trace.h != wantHash {
			t.Errorf("%s chain: trace hash %#x, pinned %#x", w.name, trace.h, wantHash)
		}
	}
}

// TestDownstreamDuplicateKey: two flows the head tells apart but a
// downstream NF keys alike (an LB with one backend steers both to one
// tuple) pass PopulateFlows, which only logs the downstream key. The
// full chain's build refuses the second, naming both flow indexes; the
// MR chain reads no downstream table and compiles.
func TestDownstreamDuplicateKey(t *testing.T) {
	as := mem.NewAddressSpace()
	l, err := lb.New(as, lb.Config{MaxFlows: 4, Backends: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(as, monitor.Config{MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	chain := []compile.Chainable{l, m}
	x := pkt.FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 443, Proto: pkt.ProtoUDP}
	y := x
	y.DstPort = 444
	if err := compile.PopulateFlows(chain, []pkt.FiveTuple{x, y}); err != nil {
		t.Fatal(err)
	}
	if _, err := compile.BuildSFC("mr", chain, compile.SFCOptions{RemoveRedundantMatching: true}); err != nil {
		t.Fatalf("MR build: %v", err)
	}
	_, err = compile.BuildSFC("full", chain, compile.SFCOptions{})
	if err == nil {
		t.Fatal("full build accepted two flows under one nm key")
	}
	if msg := err.Error(); !strings.Contains(msg, "nm") || !strings.Contains(msg, "flow index 1") || !strings.Contains(msg, "flow index 0") {
		t.Fatalf("error %q does not name the NF and both flow indexes", msg)
	}
}

// TestAddRecordReplaysInInstallOrder: before its table is built, a
// flow table's key log is in flow-index order, so AddRecord refuses an
// index other than the log's length (a gap or a repeat), naming the
// table, the index and the log length, and writes no record; keys
// logged in order build the table AddFlow calls in the same order
// build.
func TestAddRecordReplaysInInstallOrder(t *testing.T) {
	const flows = 8
	g := newFlowGen(t, chainFlows)
	newNAT := func() *nat.NAT {
		n, err := nat.New(mem.NewAddressSpace(), nat.Config{MaxFlows: flows})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	n := newNAT()
	if err := n.AddRecord(g.FlowTuple(0), 0); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int32{0, 2} {
		err := n.AddRecord(g.FlowTuple(1), idx)
		if err == nil {
			t.Fatalf("AddRecord at index %d accepted with one flow logged", idx)
		}
		want := []string{"nat", fmt.Sprintf("flow index %d", idx), "holds 1 flows"}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("error %q does not name %q", err, w)
			}
		}
	}
	if f, err := n.Flow(2); err != nil || f != (nat.Flow{}) {
		t.Fatalf("refused AddRecord wrote record 2: %+v (err %v)", f, err)
	}

	build := func(add func(*nat.NAT, pkt.FiveTuple, int32) error) *dstruct.Cuckoo {
		n := newNAT()
		for i := 0; i < flows; i++ {
			if err := add(n, g.FlowTuple(i), int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Program(); err != nil {
			t.Fatal(err)
		}
		return n.MatchTable()
	}
	if got, want := build((*nat.NAT).AddRecord), build((*nat.NAT).AddFlow); !reflect.DeepEqual(got, want) {
		t.Fatalf("table built from logged keys %+v, eagerly %+v", got, want)
	}
}
