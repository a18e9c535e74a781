package rt_test

import (
	"fmt"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// BenchmarkWorkerSteadyState measures host-side ns/packet of the
// interleaved worker on a warm 8K-flow NAT. With the traffic pool and
// the worker's batch reuse, steady state must report 0 allocs/op —
// that is the regression guard for the receive path. The name is stable
// across commits: bench_paired.sh matches it when comparing HEAD
// against older baselines.
func BenchmarkWorkerSteadyState(b *testing.B) {
	benchWorkerSteadyState(b, 1<<13, 4096)
}

// BenchmarkWorkerSteadyStateLarge is the same worker over 131072 flows
// — the nat_miss population of the repo's benchmark. The 8K-flow
// variant's Go-side state (generator records, cuckoo buckets, flow
// records: ~1.1 MB) sits in the host's L2; this one's (~18 MB) does
// not, so it is where host-memory latency, and the P-stage's host
// prefetch that hides it, shows. The warm-up builds most flows' header
// templates so the window measures copies, not encodes.
func BenchmarkWorkerSteadyStateLarge(b *testing.B) {
	benchWorkerSteadyState(b, 1<<17, 2<<17)
}

func benchWorkerSteadyState(b *testing.B, flows int, warmup uint64) {
	prog, g := buildNAT(b, flows)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(g, warmup); err != nil { // warm caches and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := w.Run(g, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	if res.Packets != uint64(b.N) {
		b.Fatalf("processed %d packets, want %d", res.Packets, b.N)
	}
}

// countingTracer is the cheapest possible tracer: it measures the cost
// of the emission machinery itself rather than any consumer.
type countingTracer struct{ events uint64 }

func (c *countingTracer) Event(sim.TraceEvent) { c.events++ }

// BenchmarkWorkerSteadyStateTraced is BenchmarkWorkerSteadyState with a
// minimal tracer attached: the delta against the untraced benchmark is
// the cost of event construction and (per-event, the tracer takes no
// batches) delivery. It must also stay at 0 allocs/op — events are
// written into the core's buffer in place and no emission site may box
// or escape one.
func BenchmarkWorkerSteadyStateTraced(b *testing.B) {
	prog, g := buildNAT(b, 1<<13)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(g, 4096); err != nil { // warm caches and pools
		b.Fatal(err)
	}
	ct := &countingTracer{}
	core.SetTracer(ct)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := w.Run(g, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Packets != uint64(b.N) {
		b.Fatalf("processed %d packets, want %d", res.Packets, b.N)
	}
	if ct.events == 0 {
		b.Fatal("tracer attached but saw no events")
	}
	b.ReportMetric(float64(ct.events)/float64(b.N), "events/pkt")
}

// TestTracerDisabledZeroAlloc pins the nil-tracer fast path: a steady
// state window with tracing disabled must not allocate at all — on a
// core that never had a tracer, and on one whose tracer was detached
// (its event buffer stays, unused).
func TestTracerDisabledZeroAlloc(t *testing.T) {
	prog, g := buildNAT(t, 1<<10)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g, 4096); err != nil { // warm caches and pools
		t.Fatal(err)
	}
	for _, state := range []string{"never traced", "tracer detached"} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := w.Run(g, 256); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("untraced steady state (%s) allocates %.1f/run, want 0", state, allocs)
		}
		ct := &countingTracer{}
		core.SetTracer(ct)
		if _, err := w.Run(g, 256); err != nil {
			t.Fatal(err)
		}
		core.SetTracer(nil)
		seen := ct.events
		if _, err := w.Run(g, 256); err != nil {
			t.Fatal(err)
		}
		if seen == 0 || ct.events != seen {
			t.Fatalf("tracer saw %d events attached, %d more after detach", seen, ct.events-seen)
		}
	}
}

// BenchmarkEngineMultiCore measures host-side scaling of the
// share-nothing engine: N goroutines each driving an independent
// simulated core over its own 4K-flow NAT, cores drawn from the
// engine's pool (the first iteration builds them, the rest recycle).
// Reported ns/op is per aggregate packet, so perfect host scaling
// keeps it flat as cores grow; the recorded ratios land in
// BENCH_hotpath.json. The cores=N names are stable so cross-commit
// paired comparisons keep matching.
func BenchmarkEngineMultiCore(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			setups := make([]rt.CoreSetup, cores)
			for i := range setups {
				setups[i] = natSetup(1<<12, int64(11+i))
			}
			eng, err := rt.NewEngine(sim.DefaultConfig(), setups)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(4096); err != nil { // build + warm the pooled cores
				b.Fatal(err)
			}
			per := uint64(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			results, err := eng.Run(per)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var total uint64
			for _, r := range results {
				total += r.Packets
			}
			if total != per*uint64(cores) {
				b.Fatalf("processed %d packets, want %d", total, per*uint64(cores))
			}
			// Normalize to aggregate packets: flat ns/op across core
			// counts == linear host scaling.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/pkt")
		})
	}
}

// BenchmarkRTCSteadyState is the same workload under the
// run-to-completion baseline, for host-cost comparison.
func BenchmarkRTCSteadyState(b *testing.B) {
	prog, g := buildNAT(b, 1<<13)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.RTCConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(g, 4096); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := w.Run(g, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	if res.Packets != uint64(b.N) {
		b.Fatalf("processed %d packets, want %d", res.Packets, b.N)
	}
}

// BenchmarkWorkerSteadyStateFlight is BenchmarkWorkerSteadyState with
// the flight recorder attached: the delta against the untraced
// benchmark is the full cost of black-box recording (event
// construction, dispatch, and the ring store) — what a replayed dump
// pays on its traced tail. It must stay at 0 allocs/op — the ring is
// sized once and overwrites in place.
func BenchmarkWorkerSteadyStateFlight(b *testing.B) {
	prog, g := buildNAT(b, 1<<13)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(g, 4096); err != nil { // warm caches and pools
		b.Fatal(err)
	}
	f := obs.NewFlightRecorder(1 << 16)
	core.SetTracer(f)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := w.Run(g, uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Packets != uint64(b.N) {
		b.Fatalf("processed %d packets, want %d", res.Packets, b.N)
	}
	if f.Len() == 0 {
		b.Fatal("flight recorder attached but saw no events")
	}
}

// TestFlightSteadyStateZeroAlloc pins the traced hot path: a
// steady-state window with the ring attached must not allocate — alone,
// with the latency probe alone (what an agent attaches to a latency
// deployment), and with both under Multi.
func TestFlightSteadyStateZeroAlloc(t *testing.T) {
	prog, g := buildNAT(t, 1<<10)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace()
	w, err := rt.NewWorker(core, as, prog, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g, 4096); err != nil { // warm caches and pools
		t.Fatal(err)
	}
	for name, taps := range map[string]sim.Tracer{
		"flight":       obs.NewFlightRecorder(1 << 12),
		"probe":        obs.NewLatencyProbe(),
		"flight+probe": obs.Multi(obs.NewFlightRecorder(1<<12), obs.NewLatencyProbe()),
	} {
		core.SetTracer(taps)
		if _, err := w.Run(g, 4096); err != nil { // sizes the probe's map and histogram
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := w.Run(g, 256); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: traced steady state allocates %.1f/run, want 0", name, allocs)
		}
	}
}
