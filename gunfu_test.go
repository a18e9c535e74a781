package gunfu_test

import (
	"testing"

	gunfu "github.com/gunfu-nfv/gunfu"
)

// TestPublicAPIQuickstart exercises the documented happy path end to
// end through the facade only: build a NAT, run it under both
// execution models, and confirm the headline property (interleaving
// beats RTC on a large flow population).
func TestPublicAPIQuickstart(t *testing.T) {
	const flows, packets = 16384, 20000

	build := func() (*gunfu.Program, *gunfu.FlowGen, *gunfu.AddressSpace) {
		as := gunfu.NewAddressSpace()
		n, err := gunfu.NewNAT(as, gunfu.NATConfig{MaxFlows: flows})
		if err != nil {
			t.Fatal(err)
		}
		g, err := gunfu.NewFlowGen(gunfu.FlowGenConfig{
			Flows: flows, PacketBytes: 64, Order: gunfu.OrderUniform, Seed: 9,
		})
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
		return prog, g, as
	}

	prog, g, as := build()
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	rtcW, err := gunfu.NewRTCWorker(core, as, prog, gunfu.DefaultRTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := rtcW.Run(g, packets)
	if err != nil {
		t.Fatal(err)
	}

	prog, g, as = build()
	core, err = gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := gunfu.NewWorker(core, as, prog, gunfu.DefaultWorkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(g, packets)
	if err != nil {
		t.Fatal(err)
	}

	if res.Packets != packets || base.Packets != packets {
		t.Fatalf("packet counts: il=%d rtc=%d", res.Packets, base.Packets)
	}
	if res.Gbps() <= base.Gbps() {
		t.Fatalf("interleaved (%.2f Gbps) not above RTC (%.2f Gbps)", res.Gbps(), base.Gbps())
	}
}

// TestPublicAPISFC drives chain composition and the compiler
// optimizations through the facade.
func TestPublicAPISFC(t *testing.T) {
	const flows = 1024
	as := gunfu.NewAddressSpace()
	chain, err := gunfu.BuildChain(as, 4, flows)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gunfu.NewFlowGen(gunfu.FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]gunfu.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	if err := gunfu.PopulateFlows(chain, tuples); err != nil {
		t.Fatal(err)
	}
	prog, err := gunfu.BuildSFC("sfc", chain, gunfu.SFCOptions{
		RemoveRedundantMatching: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := gunfu.NewWorker(core, as, prog, gunfu.DefaultWorkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(g, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 3000 {
		t.Fatalf("packets = %d", res.Packets)
	}
}

// TestPublicAPIExperiments confirms the experiment runner is reachable
// from the facade.
func TestPublicAPIExperiments(t *testing.T) {
	names := gunfu.ExperimentNames()
	if len(names) < 9 {
		t.Fatalf("ExperimentNames = %v", names)
	}
	tables, err := gunfu.RunExperiment("fig9", gunfu.ExpOptions{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].NumRows() == 0 {
		t.Fatal("fig9 produced no rows")
	}
}

// TestPublicAPIDataPacking exercises layout packing via the facade.
func TestPublicAPIDataPacking(t *testing.T) {
	fields := []gunfu.Field{
		{Name: "hot_a", Size: 8},
		{Name: "cold", Size: 200},
		{Name: "hot_b", Size: 8},
	}
	layout, err := gunfu.PackLayout(fields, [][]string{{"hot_a", "hot_b"}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := layout.LinesTouched([]string{"hot_a", "hot_b"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("packed hot fields span %d lines", n)
	}
}
