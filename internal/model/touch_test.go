package model_test

// The Action.Touch contract under the real runtimes: a Touch is a
// host-side prefetch and nothing else, so (i) a program runs to the same
// results, access log and trace events with every Touch present as with
// every Touch stripped, and (ii) it runs exactly on the P-stage visits
// that issue the simulated fetch — counted here from the trace, not from
// the code under test — and never under run-to-completion.

import (
	"math/rand"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// touchPrograms is how many programs of the randomized corpus the Touch
// tests replay.
const touchPrograms = 32

// touchAll gives every action of w's program a Touch doing what the
// shipped ones do — a host prefetch of a Go-side record indexed by the
// task's flow index — and counting its calls.
func touchAll(t *testing.T, w *diffWorld, calls *int) {
	t.Helper()
	records := make([][64]byte, 64)
	for id := 0; id < w.prog.NumActions(); id++ {
		act, err := w.prog.Action(model.ActionID(id))
		if err != nil {
			t.Fatal(err)
		}
		act.Touch = func(e *model.Exec) {
			*calls++
			hostmem.Prefetch(&records[int(e.FlowIdx)&63])
		}
	}
	w.prog.CompilePlans()
}

// touchModes are the runtimes a Touch can meet.
var touchModes = []struct {
	name          string
	mode          refMode
	residentCheck bool
}{
	{"rr", refRR, true},
	{"nocheck", refRR, false},
	{"rtc", refRTC, true},
}

// TestTouchCounterNeutral builds each random program twice from one
// seed, gives one copy a Touch on every action, and requires the two to
// be indistinguishable from the simulator's side.
func TestTouchCounterNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	calls := 0
	for n := 0; n < touchPrograms; n++ {
		seed := rng.Int63()
		bare := buildRandomProgram(t, rand.New(rand.NewSource(seed)))
		touching := buildRandomProgram(t, rand.New(rand.NewSource(seed)))
		touchAll(t, touching, &calls)
		cfg := eventConfig(rng)
		for _, m := range touchModes {
			cfg.ResidentCheck = m.residentCheck
			want := runTraced(t, bare, true, realWorker(t, bare, m.mode, cfg))
			got := runTraced(t, touching, true, realWorker(t, touching, m.mode, cfg))
			compareTraced(t, n, "touch/"+m.name, got, want)
		}
	}
	if calls == 0 {
		t.Fatal("no Touch ever ran: the comparison proved nothing")
	}
}

// issuingVisits counts, from a trace, the P-stage visits that issued a
// fetch: every such visit emits one prefetch event per plan line and
// then switches away, and nothing else emits prefetch events.
func issuingVisits(evs []sim.TraceEvent) int {
	n := 0
	inIssue := false
	for _, ev := range evs {
		switch ev.Kind {
		case sim.TracePrefetchIssued, sim.TracePrefetchDropped, sim.TracePrefetchRedundant:
			inIssue = true
		default:
			if inIssue {
				n++
			}
			inIssue = false
		}
	}
	return n
}

// TestTouchFiresOncePerIssuingVisit checks the call count against the
// trace: one Touch per issuing visit under every interleaved mode (so
// none on a resident visit), none at all under rtc.
func TestTouchFiresOncePerIssuingVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	total := 0
	for n := 0; n < touchPrograms; n++ {
		w := buildRandomProgram(t, rng)
		calls := 0
		touchAll(t, w, &calls)
		cfg := eventConfig(rng)
		for _, m := range touchModes {
			cfg.ResidentCheck = m.residentCheck
			calls = 0
			run := runTraced(t, w, false, realWorker(t, w, m.mode, cfg))
			want := issuingVisits(run.evs)
			if m.mode == refRTC {
				want = 0
			}
			if calls != want {
				t.Fatalf("program %d %s: Touch ran %d times, trace shows %d issuing visits", n, m.name, calls, want)
			}
			total += calls
		}
	}
	if total == 0 {
		t.Fatal("no issuing visit in the whole corpus")
	}
}
