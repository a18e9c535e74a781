package nf_test

// Interleaved ≡ run-to-completion for the shipped NFs and the SFC-6
// chain: the same workload through rt.Worker under an interleaved
// config and under rt.RTCConfig must emit
// the same packets, byte for byte in arrival order, and leave the same
// per-flow NF state behind — the chained-stateful-NF correctness
// condition of Khalid & Akella (PAPERS.md) applied to this runtime.
// (internal/rt's sched_test.go holds the two workers to each other over
// randomized programs; this file does it for the code that ships.)

import (
	"reflect"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// captureSource hands the worker a private copy of every packet its
// source emits (generators recycle their buffers) and keeps the copies,
// in arrival order, for inspection after the run.
type captureSource struct {
	src rt.Source
	out []*pkt.Packet
}

func (c *captureSource) Next() *pkt.Packet {
	p := c.src.Next()
	if p == nil {
		return nil
	}
	q := *p
	q.Data = append([]byte(nil), p.Data...)
	c.out = append(c.out, &q)
	return &q
}

// runEquiv drives packets of w's workload through a worker under cfg
// and returns what was emitted and the state left behind.
func runEquiv(t *testing.T, w touchWorld, packets uint64, cfg rt.Config) ([]*pkt.Packet, any) {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	as := *w.as
	worker, err := rt.NewWorker(core, &as, w.prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &captureSource{src: w.src(t)}
	res, err := worker.Run(src, packets)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != packets {
		t.Fatalf("%d of %d packets completed", res.Packets, packets)
	}
	return src.out, w.state()
}

func TestInterleavedEqualsRunToCompletion(t *testing.T) {
	const packets = 6000
	// Two independent builds of every world, one per runtime: the NFs
	// mutate their Go-side tables as they run.
	build := func() []touchWorld {
		// The fig13 compile ladder over the six-NF chain.
		return append(touchWorlds(t),
			sfcWorld(t, "sfc6", false, compile.SFCOptions{}),
			sfcWorld(t, "sfc6-dp", true, compile.SFCOptions{}),
			sfcWorld(t, "sfc6-dp-mr", true, compile.SFCOptions{RemoveRedundantMatching: true}),
		)
	}
	rtcWorlds, rtWorlds := build(), build()
	for i, w := range rtcWorlds {
		t.Run(w.name, func(t *testing.T) {
			wantOut, wantState := runEquiv(t, w, packets, rt.RTCConfig())
			gotOut, gotState := runEquiv(t, rtWorlds[i], packets, rt.DefaultConfig())
			for n := range wantOut {
				if !reflect.DeepEqual(gotOut[n], wantOut[n]) {
					t.Fatalf("packet %d emitted as %+v under rt, %+v under rtc", n, gotOut[n], wantOut[n])
				}
			}
			if !reflect.DeepEqual(gotState, wantState) {
				t.Fatal("final per-flow state differs between rt and rtc")
			}
		})
	}
}
