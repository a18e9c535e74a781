package fw

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// runOn runs n packets of src through f on a fresh worker under cfg.
func runOn(t *testing.T, f *FW, src rt.Source, n uint64, cfg rt.Config) {
	t.Helper()
	prog, err := f.Program()
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(src, n); err != nil {
		t.Fatal(err)
	}
}

// bothRuntimes runs fn as a subtest under each execution model.
func bothRuntimes(t *testing.T, fn func(t *testing.T, cfg rt.Config)) {
	t.Run("rtc", func(t *testing.T) { fn(t, rt.RTCConfig()) })
	t.Run("rt", func(t *testing.T) { fn(t, rt.DefaultConfig()) })
}

func TestNewValidation(t *testing.T) {
	if _, err := New(mem.NewAddressSpace(), Config{MaxFlows: 0}); err == nil {
		t.Fatal("zero MaxFlows accepted")
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{Proto: pkt.ProtoTCP, DstPortLo: 80, DstPortHi: 90, Allow: true}
	tests := []struct {
		tuple pkt.FiveTuple
		want  bool
	}{
		{pkt.FiveTuple{Proto: pkt.ProtoTCP, DstPort: 85}, true},
		{pkt.FiveTuple{Proto: pkt.ProtoTCP, DstPort: 80}, true},
		{pkt.FiveTuple{Proto: pkt.ProtoTCP, DstPort: 90}, true},
		{pkt.FiveTuple{Proto: pkt.ProtoTCP, DstPort: 91}, false},
		{pkt.FiveTuple{Proto: pkt.ProtoUDP, DstPort: 85}, false},
	}
	for i, tt := range tests {
		if got := r.Matches(tt.tuple); got != tt.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, tt.want)
		}
	}
	anyProto := Rule{DstPortLo: 0, DstPortHi: 65535}
	if !anyProto.Matches(pkt.FiveTuple{Proto: 99, DstPort: 7}) {
		t.Fatal("wildcard-proto rule did not match")
	}
}

func TestDefaultPolicyEndsWithAllow(t *testing.T) {
	for _, n := range []int{1, 4, 32} {
		p := DefaultPolicy(n)
		if len(p) != n {
			t.Fatalf("DefaultPolicy(%d) has %d rules", n, len(p))
		}
		last := p[len(p)-1]
		if !last.Allow || last.DstPortLo != 0 || last.DstPortHi != 65535 {
			t.Fatalf("policy %d does not end with catch-all allow: %+v", n, last)
		}
	}
	if len(DefaultPolicy(0)) != 1 {
		t.Fatal("DefaultPolicy(0) must clamp to 1 rule")
	}
}

func TestEstablishedFlowsPass(t *testing.T) {
	f, err := New(mem.NewAddressSpace(), Config{MaxFlows: 32})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 32, PacketBytes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := f.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	runOn(t, f, g, 300, rt.RTCConfig())
	if f.Drops() != 0 {
		t.Fatalf("allow-all policy dropped %d packets", f.Drops())
	}
	var pkts uint64
	for i := int32(0); i < 32; i++ {
		fl, err := f.Flow(i)
		if err != nil {
			t.Fatal(err)
		}
		pkts += fl.Pkts
	}
	if pkts != 300 {
		t.Fatalf("flow counters sum to %d, want 300", pkts)
	}
}

func TestFirstPacketWalksPolicy(t *testing.T) {
	// 40 rules = 5 policy lines; flow 0's first packet must walk them
	// and install an allow verdict (catch-all).
	f, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4, Policy: DefaultPolicy(40)})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, f, g, 2, rt.RTCConfig())
	fl, err := f.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.Allowed {
		t.Fatal("catch-all allow not installed")
	}
	if fl.RuleID != 39 {
		t.Fatalf("deciding rule = %d, want 39 (catch-all)", fl.RuleID)
	}
	if fl.Pkts != 2 {
		t.Fatalf("flow pkts = %d, want 2", fl.Pkts)
	}
}

// TestFirstPacketsInstallVerdict sends 64 uninstalled flows round-robin,
// so under rt a whole burst of first packets is in flight at once: every
// one must walk the policy, bind a flow index in alloc before install's
// per-flow writes resolve, and leave its verdict behind for the flow's
// second packet (a burst later) to hit.
func TestFirstPacketsInstallVerdict(t *testing.T) {
	const flows = 64
	bothRuntimes(t, func(t *testing.T, cfg rt.Config) {
		f, err := New(mem.NewAddressSpace(), Config{MaxFlows: flows, Policy: DefaultPolicy(40)})
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Order: traffic.OrderRoundRobin, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		runOn(t, f, g, 2*flows, cfg)
		if f.Drops() != 0 {
			t.Fatalf("Drops = %d, want 0", f.Drops())
		}
		for i := int32(0); i < flows; i++ {
			fl, err := f.Flow(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Flow{Allowed: true, RuleID: 39, Pkts: 2}); fl != want {
				t.Fatalf("flow %d = %+v, want %+v", i, fl, want)
			}
		}
	})
}

func TestDenyPolicyDrops(t *testing.T) {
	deny := []Rule{{Proto: 0, DstPortLo: 0, DstPortHi: 65535, Allow: false}}
	f, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4, Policy: deny})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, f, g, 3, rt.RTCConfig())
	if f.Drops() != 3 {
		t.Fatalf("Drops = %d, want 3", f.Drops())
	}
}

func TestNoMatchingRuleDrops(t *testing.T) {
	// Policy with a hole: only TCP port 1 allowed; UDP traffic matches
	// nothing and must be dropped.
	policy := []Rule{{Proto: pkt.ProtoTCP, DstPortLo: 1, DstPortHi: 1, Allow: true}}
	f, err := New(mem.NewAddressSpace(), Config{MaxFlows: 4, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, f, g, 1, rt.RTCConfig())
	if f.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", f.Drops())
	}
	fl, _ := f.Flow(0)
	if fl.Allowed {
		t.Fatal("deny verdict not installed for unmatched flow")
	}
}

func TestBounds(t *testing.T) {
	f, err := New(mem.NewAddressSpace(), Config{MaxFlows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddFlow(pkt.FiveTuple{}, 9); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := f.Flow(9); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if f.Name() != "fw" {
		t.Fatal("accessors broken")
	}
}
