package exp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// The golden-counters tests pin the *simulated* behavior of the engine
// bit-exactly: a fixed seeded workload must produce exactly the same
// PMU counter block, packet count and access-cycle split, forever.
// Host-side optimizations (cache scan kernels, allocation removal,
// parallel sweep execution) must never move a single counter; if one of
// these tests fails, a "performance" change silently altered the
// reproduced numbers and must be fixed, not re-golded.
//
// The golden strings were captured from the seed engine with Seed=42
// and quick-mode populations.

// goldenCase is one seeded scenario: a registry deployable (NF,
// population and task count, which picks the worker config) and its
// pinned fingerprint.
type goldenCase struct {
	name string
	spec deploy.Spec
	want string
}

// run builds the case through the registry's factory, runs it as a
// sweep point of o and returns its fingerprint.
func (tc goldenCase) run(o Options) (string, error) {
	res, err := o.run(o.deploy(tc.spec), rt.ConfigFor(tc.spec.Tasks), 2000, 8000)
	if err != nil {
		return "", err
	}
	return fingerprint(res.Packets, res.Cycles, res.AccessCycles, res.Counters), nil
}

// fingerprint renders every simulated quantity a hot-path rewrite could
// disturb: the full counter block (all fields, exact integers — %#v
// bypasses the rounding String method) plus the window totals.
func fingerprint(packets, cycles, accessCycles uint64, ctr sim.Counters) string {
	fields := strings.TrimPrefix(fmt.Sprintf("%#v", ctr), "sim.")
	return fmt.Sprintf("packets=%d cycles=%d access=%d %s", packets, cycles, accessCycles, fields)
}

func goldenCases() []goldenCase {
	nat := func(tasks int) deploy.Spec { return deploy.Spec{NF: "nat", Flows: 1 << 13, Tasks: tasks} }
	upf := func(tasks int) deploy.Spec {
		return deploy.Spec{NF: "upf-downlink", Flows: 1 << 11, PDRs: 16, Tasks: tasks}
	}
	return []goldenCase{
		{
			name: "nat-rtc",
			spec: nat(0),
			want: "packets=8000 cycles=2175288 access=1677440 Counters{Cycles:0x213138, Instructions:0xfafa4, Reads:0x7e34, Writes:0x3e80, L1Hits:0x61f4, L1Misses:0x5ac0, L2Hits:0x2fc0, L2Misses:0x2b00, LLCHits:0x14b8, LLCMisses:0x1648, PrefetchIssued:0x0, PrefetchDropped:0x0, PrefetchRedundant:0x0, PrefetchUseful:0x0, PrefetchLate:0x0, StallCycles:0x1810b0, TaskSwitches:0x0}",
		},
		{
			name: "nat-il16",
			spec: nat(16),
			want: "packets=8000 cycles=1379326 access=248638 Counters{Cycles:0x150bfe, Instructions:0x18de82, Reads:0x7e34, Writes:0x3e80, L1Hits:0xb357, L1Misses:0x95d, L2Hits:0x7a6, L2Misses:0x1b7, LLCHits:0x1b5, LLCMisses:0x2, PrefetchIssued:0x63d9, PrefetchDropped:0x5, PrefetchRedundant:0x154c, PrefetchUseful:0x6096, PrefetchLate:0x6e, StallCycles:0xfde2, TaskSwitches:0xb9cf}",
		},
		{
			name: "nat-il64",
			spec: nat(64),
			want: "packets=8000 cycles=1602288 access=467978 Counters{Cycles:0x1872f0, Instructions:0x18eae7, Reads:0x7e34, Writes:0x3e80, L1Hits:0x7f0c, L1Misses:0x3da8, L2Hits:0x319d, L2Misses:0xc0b, LLCHits:0xc08, LLCMisses:0x3, PrefetchIssued:0x7982, PrefetchDropped:0x29, PrefetchRedundant:0x140, PrefetchUseful:0x3c10, PrefetchLate:0x3d, StallCycles:0x527da, TaskSwitches:0xbab2}",
		},
		{
			name: "upf-rtc",
			spec: upf(0),
			want: "packets=8000 cycles=7650362 access=6677082 Counters{Cycles:0x74bc3a, Instructions:0x1ff338, Reads:0x200f8, Writes:0x5dc0, L1Hits:0xdb53, L1Misses:0x18365, L2Hits:0xe65b, L2Misses:0x9d0a, LLCHits:0x3eda, LLCMisses:0x5e30, PrefetchIssued:0x0, PrefetchDropped:0x0, PrefetchRedundant:0x0, PrefetchUseful:0x0, PrefetchLate:0x0, StallCycles:0x62750e, TaskSwitches:0x0}",
		},
		{
			name: "upf-il16",
			spec: upf(16),
			want: "packets=8000 cycles=4611199 access=737147 Counters{Cycles:0x465c7f, Instructions:0x4a8f3e, Reads:0x200f8, Writes:0x5dc0, L1Hits:0x25e17, L1Misses:0xa1, L2Hits:0x10, L2Misses:0x91, LLCHits:0x90, LLCMisses:0x1, PrefetchIssued:0x1a3c2, PrefetchDropped:0x2, PrefetchRedundant:0x35a, PrefetchUseful:0x19963, PrefetchLate:0xa5a, StallCycles:0x1c71f, TaskSwitches:0x369be}",
		},
	}
}

func TestGoldenCounters(t *testing.T) {
	o := quick()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("simulated counters drifted from the seed engine\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestGoldenCountersRegistry builds every golden case the way agents
// and gunfu-bench do — deploy.DefaultRegistry().Build on a fresh core,
// the spec's Tasks choosing the worker config — and holds it to the
// same pinned fingerprint: one worker-config rule for every caller.
func TestGoldenCountersRegistry(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			core, err := sim.NewCore(sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			d := tc.spec
			d.PacketBytes, d.Seed = 64, 42
			_, run, err := deploy.DefaultRegistry().Build(core, d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(2000); err != nil {
				t.Fatal(err)
			}
			res, err := run(8000)
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res.Packets, res.Cycles, res.AccessCycles, res.Counters)
			if got != tc.want {
				t.Errorf("the registry's worker config drifted from the sweeps'\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// countTracer consumes every trace event, proving emission actually
// happened without perturbing anything.
type countTracer struct {
	events uint64
	stall  uint64
}

func (c *countTracer) Event(ev sim.TraceEvent) {
	c.events++
	if ev.Kind == sim.TraceStall {
		c.stall += ev.A
	}
}

// TestGoldenCountersTraced pins counter-neutrality of the tracing
// subsystem: with a tracer attached (every emission site live — action
// and access events from the step plan, rx/done, stalls, prefetches —
// and delivery deferred to flush points), every golden case must still
// fingerprint to the exact same pinned string, while the tracer
// demonstrably observes events.
func TestGoldenCountersTraced(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			ct := &countTracer{}
			o := quick()
			o.Tracer = ct
			got, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("tracing perturbed the simulation\n got: %s\nwant: %s", got, tc.want)
			}
			if ct.events == 0 {
				t.Fatal("tracer attached but no events observed")
			}
			// The stall events must decompose the counter exactly; the
			// window's StallCycles is a hex field of the fingerprint, but
			// the tracer saw warmup too, so only sanity-check non-zero
			// coverage here (exact equality is pinned in internal/obs).
			if ct.stall == 0 {
				t.Fatal("no stall cycles attributed")
			}
		})
	}
}

// TestGoldenRepeatable guards against hidden global state: the same
// scenario built twice from the same seed must fingerprint identically
// within one process.
func TestGoldenRepeatable(t *testing.T) {
	o := quick()
	tc := goldenCases()[1] // nat-il16
	a, err := tc.run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different counters:\n first: %s\nsecond: %s", a, b)
	}
}

// kindSplit is a full-stream tracer (it declares no kinds) that keeps,
// per filter, the subsequence of its stream a tracer declaring that
// filter should receive.
type kindSplit struct {
	filters []sim.TraceKinds
	subs    [][]sim.TraceEvent
}

func (k *kindSplit) Event(ev sim.TraceEvent) {
	for i, f := range k.filters {
		if f.Has(ev.Kind) {
			k.subs[i] = append(k.subs[i], ev)
		}
	}
}

// kindRecorder declares kinds and keeps everything it is handed.
type kindRecorder struct {
	kinds sim.TraceKinds
	evs   []sim.TraceEvent
}

func (k *kindRecorder) Event(ev sim.TraceEvent)    { k.evs = append(k.evs, ev) }
func (k *kindRecorder) TraceKinds() sim.TraceKinds { return k.kinds }

// TestGoldenCountersKindFiltered pins the kind filter on rt and rtc
// over NAT and UPF: a tracer declaring a kind set receives exactly the
// matching subsequence of a full tracer's stream — every field, Cycle,
// A, B, C, Task and CS stamps included — and the golden fingerprints
// hold with either tracer attached.
func TestGoldenCountersKindFiltered(t *testing.T) {
	filters := []sim.TraceKinds{
		sim.KindSet(sim.TraceRx, sim.TraceStreamDone),
		sim.KindSet(sim.TraceAccess),
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			full := &kindSplit{filters: filters, subs: make([][]sim.TraceEvent, len(filters))}
			o := quick()
			o.Tracer = full
			got, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("full tracer perturbed the simulation\n got: %s\nwant: %s", got, tc.want)
			}
			for i, kinds := range filters {
				kr := &kindRecorder{kinds: kinds}
				o.Tracer = kr
				got, err := tc.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("kinds %#x: filtered tracer perturbed the simulation\n got: %s\nwant: %s", kinds, got, tc.want)
				}
				want := full.subs[i]
				if len(want) == 0 {
					t.Fatalf("kinds %#x: the full stream has no matching events", kinds)
				}
				if len(kr.evs) != len(want) {
					t.Fatalf("kinds %#x: filtered tracer got %d events, the full stream has %d matching", kinds, len(kr.evs), len(want))
				}
				for j := range want {
					if kr.evs[j] != want[j] {
						t.Fatalf("kinds %#x: event %d is %+v, the full stream's is %+v", kinds, j, kr.evs[j], want[j])
					}
				}
			}
		})
	}
}
