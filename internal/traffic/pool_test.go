package traffic

import (
	"fmt"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// TestDrainedPoolHoldsInFlight: a worker hands every packet back, so a
// generator it drains makes no more packets than the worker keeps in
// flight, Tasks+Batch rounded up to chunkSize times a power of two,
// under run-to-completion and interleaving alike, and every packet runs
// to completion.
func TestDrainedPoolHoldsInFlight(t *testing.T) {
	const flows, packets = 256, 20000
	for _, cfg := range []rt.Config{rt.RTCConfig(), rt.ConfigFor(16), rt.ConfigFor(64)} {
		t.Run(fmt.Sprintf("tasks=%d", cfg.Tasks), func(t *testing.T) {
			as := mem.NewAddressSpace()
			n, err := nat.New(as, nat.Config{MaxFlows: flows})
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewFlowGen(FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := range flows {
				if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
					t.Fatal(err)
				}
			}
			prog, err := n.Program()
			if err != nil {
				t.Fatal(err)
			}
			core, err := sim.NewCore(sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			w, err := rt.NewWorker(core, as, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(g, packets)
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != packets {
				t.Fatalf("ran %d of %d packets", res.Packets, packets)
			}
			inFlight, limit := cfg.Tasks+cfg.Batch, chunkSize
			for limit < inFlight {
				limit *= 2
			}
			if made := len(g.slots); made > limit {
				t.Fatalf("pool made %d packets for %d in flight, want <= %d", made, inFlight, limit)
			}
		})
	}
}

// TestCaidaNextSize: NextSize draws what Next does, so a trace that
// draws sizes only stays in step with one that builds frames.
func TestCaidaNextSize(t *testing.T) {
	cfg := CaidaConfig{Flows: 64, Seed: 9}
	sizes, err := NewCaidaGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := NewCaidaGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10000 {
		if got, want := sizes.NextSize(), frames.Next().WireLen; got != want {
			t.Fatalf("draw %d: NextSize %d, Next's wire size %d", i, got, want)
		}
	}
	if len(sizes.slots) != 0 {
		t.Fatalf("NextSize made %d packets, want none", len(sizes.slots))
	}
	if a, b := sizes.Next(), frames.Next(); a.Tuple != b.Tuple || a.WireLen != b.WireLen {
		t.Fatalf("after 10000 draws: %v at %d B, want %v at %d B", a.Tuple, a.WireLen, b.Tuple, b.WireLen)
	}
}

// TestPoolFillAllocs: a consumer that hands nothing back fills the pool
// in seven chunks of about four allocations each (packets, buffers, and
// room in slots and free), at most 32 in all, and then allocates no
// more. The benchmark's traced windows fill a drained generator this
// way, inside the measured interval.
func TestPoolFillAllocs(t *testing.T) {
	var p *pool
	fill := testing.AllocsPerRun(5, func() {
		p = newPool()
		for range poolSize {
			p.take()
		}
	})
	if fill > 32 {
		t.Fatalf("filling the pool allocates %.0f times, want <= 32", fill)
	}
	if again := testing.AllocsPerRun(5, func() { p.take() }); again != 0 {
		t.Fatalf("a full pool allocates %.1f per take, want 0", again)
	}
}
