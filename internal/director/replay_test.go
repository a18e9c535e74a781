package director

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// runCalls lists the Run calls an agent makes for d: the warm-up, then
// the measured window in StatsEvery chunks (one piece without).
func runCalls(d DeploySpec) []uint64 {
	var calls []uint64
	if d.Warmup > 0 {
		calls = append(calls, d.Warmup)
	}
	if d.StatsEvery == 0 {
		return append(calls, d.Packets)
	}
	for left := d.Packets; left > 0; left -= min(left, d.StatsEvery) {
		calls = append(calls, min(left, d.StatsEvery))
	}
	return calls
}

// liveDumps runs d the way an agent once did, with a flight recorder of
// the given size attached live from the first packet, and renders the
// ring after every Run call.
func liveDumps(t *testing.T, d DeploySpec, events int) [][]byte {
	t.Helper()
	as := mem.NewAddressSpace()
	prog, src, err := DefaultRegistry()[d.NF](as, d)
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := obs.NewFlightRecorder(events)
	core.SetTracer(f)
	w, err := rt.NewWorker(core, as, prog, rt.ConfigFor(d.Tasks))
	if err != nil {
		t.Fatal(err)
	}
	run := func(n uint64) (rt.Result, error) { return w.Run(src, n) }
	var dumps [][]byte
	for _, n := range runCalls(d) {
		if _, err := run(n); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.DumpPerfetto(&buf, prog, sim.DefaultConfig().FreqHz); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, buf.Bytes())
	}
	return dumps
}

// dumpCapture collects an agent's dumps through its OnDump hook.
type dumpCapture struct {
	infos  []DumpInfo
	traces [][]byte
}

func (c *dumpCapture) hook(info DumpInfo, trace []byte) {
	c.infos = append(c.infos, info)
	c.traces = append(c.traces, append([]byte(nil), trace...))
}

// TestReplayedDumpMatchesLiveRecording: a dump replayed on demand is
// byte-identical to what a recorder attached to the live run held at
// the same point — served at a mid-run window boundary and after the
// deployment, interleaved and run-to-completion, for a ring the
// deployment wraps many times (its replay traces only a tail, longer
// than the short last window) and for the default ring, which these
// deployments do not fill.
func TestReplayedDumpMatchesLiveRecording(t *testing.T) {
	specs := []DeploySpec{
		{NF: "nat", Flows: 1024, Packets: 1510, Warmup: 300, PacketBytes: 64, Tasks: 16, Seed: 5, StatsEvery: 500, Latency: true},
		{NF: "upf-downlink", Flows: 256, PDRs: 4, Packets: 910, PacketBytes: 128, Seed: 6, StatsEvery: 300},
		{NF: "sfc", Flows: 256, Packets: 310, Warmup: 100, PacketBytes: 64, Tasks: 8, Seed: 7, StatsEvery: 150},
	}
	for _, d := range specs {
		for _, events := range []int{1024, DefaultFlightEvents} {
			live := liveDumps(t, d, events)
			a, err := NewAgent("w", DefaultRegistry())
			if err != nil {
				t.Fatal(err)
			}
			a.FlightEvents = events
			a.DumpDir = t.TempDir()
			var got dumpCapture
			a.OnDump = got.hook
			// Ask for a dump during window 1: the measure loop serves it
			// at that window's boundary.
			a.OnStats = func(r StatsReport) {
				if r.Window == 1 {
					a.dumpReq.Store(true)
				}
			}
			reply := a.execute(Envelope{Type: TypeDeploy, Seq: 1, Deploy: &d}, nil)
			if reply.Type != TypeResult {
				t.Fatalf("%s: %s %s", d.NF, reply.Type, reply.Error)
			}
			a.dumpReq.Store(true)
			a.maybeDump(nil)

			mid := 1 // window 1's Run call, after the warm-up's
			if d.Warmup > 0 {
				mid++
			}
			want := [][]byte{live[mid], live[len(live)-1]}
			if len(got.infos) != len(want) {
				t.Fatalf("%s/%d: %d dumps, want %d", d.NF, events, len(got.infos), len(want))
			}
			for i, info := range got.infos {
				if info.Error != "" {
					t.Fatalf("%s/%d: dump %d: %s", d.NF, events, i, info.Error)
				}
				if wrapped := info.Events == a.flight.Cap(); wrapped != (events < DefaultFlightEvents) {
					t.Fatalf("%s/%d: dump %d holds %d events: the case needs the small ring wrapped and the default one not",
						d.NF, events, i, info.Events)
				}
				if !bytes.Equal(got.traces[i], want[i]) {
					t.Errorf("%s/%d: dump %d (%d bytes, %d events) differs from the live recording (%d bytes)",
						d.NF, events, i, len(got.traces[i]), info.Events, len(want[i]))
				}
				if file, err := os.ReadFile(info.Path); err != nil || !bytes.Equal(file, got.traces[i]) {
					t.Errorf("%s/%d: dump %d file %s does not hold the rendered trace (err %v)", d.NF, events, i, info.Path, err)
				}
			}
		}
	}
}

// TestReplayDivergenceIsReported: a factory that is not a function of
// its spec makes the replay differ from the live run; the agent reports
// where in DumpInfo.Error and writes no file.
func TestReplayDivergenceIsReported(t *testing.T) {
	calls := 0
	reg := deploy.Registry{"nat": func(as *mem.AddressSpace, d DeploySpec) (*model.Program, rt.Source, error) {
		calls++
		d.Seed += int64(calls) // a different workload every build
		return deploy.DefaultRegistry()["nat"](as, d)
	}}
	a, err := NewAgent("w", reg)
	if err != nil {
		t.Fatal(err)
	}
	a.DumpDir = t.TempDir()
	var got dumpCapture
	a.OnDump = got.hook
	d := DeploySpec{NF: "nat", Flows: 512, Packets: 1000, Warmup: 200, PacketBytes: 64, Tasks: 8, Seed: 1}
	if reply := a.execute(Envelope{Type: TypeDeploy, Seq: 1, Deploy: &d}, nil); reply.Type != TypeResult {
		t.Fatalf("%s %s", reply.Type, reply.Error)
	}
	a.dumpReq.Store(true)
	a.maybeDump(nil)
	if len(got.infos) != 1 {
		t.Fatalf("%d dumps, want 1", len(got.infos))
	}
	info := got.infos[0]
	if !strings.Contains(info.Error, "replay diverged") || !strings.Contains(info.Error, "Run call 1 of 2") {
		t.Fatalf("dump error %q does not name the divergence", info.Error)
	}
	if info.Path != "" || info.Events != 0 || len(got.traces[0]) != 0 {
		t.Fatalf("diverged dump produced output: %+v, %d trace bytes", info, len(got.traces[0]))
	}
	if files, err := os.ReadDir(a.DumpDir); err != nil || len(files) != 0 {
		t.Fatalf("dump dir holds %d files (err %v), want none", len(files), err)
	}
}

// TestAgentLiveTaps guards what a live deployment carries: nothing
// without latency telemetry, and with it only the latency probe, which
// consumes stream-done events alone — one per packet.
func TestAgentLiveTaps(t *testing.T) {
	for _, latency := range []bool{false, true} {
		seen := map[sim.Tracer]bool{}
		reg := deploy.Registry{"taps": func(as *mem.AddressSpace, d DeploySpec) (*model.Program, rt.Source, error) {
			b := model.NewBuilder("taps")
			b.AddModule("m", model.Binding{})
			done := b.Event("done")
			b.AddState("m", "A", model.Action{
				Name: "a",
				Fn: func(e *model.Exec) model.EventID {
					seen[e.Core.Tracer()] = true
					return done
				},
			})
			b.AddTransition("m.A", "done", model.EndName)
			b.SetStart("m.A")
			prog, err := b.Build()
			if err != nil {
				return nil, nil, err
			}
			g, err := traffic.NewFlowGen(traffic.FlowGenConfig{
				Flows: d.Flows, PacketBytes: d.PacketBytes, Order: traffic.OrderUniform, Seed: d.Seed,
			})
			return prog, g, err
		}}
		a, err := NewAgent("w", reg)
		if err != nil {
			t.Fatal(err)
		}
		var latencySamples uint64
		a.OnStats = func(r StatsReport) {
			if r.Latency != nil {
				latencySamples += r.Latency.Count()
			}
		}
		d := DeploySpec{NF: "taps", Flows: 64, Packets: 600, Warmup: 100, PacketBytes: 64, Tasks: 8, Seed: 2, StatsEvery: 200, Latency: latency}
		if reply := a.execute(Envelope{Type: TypeDeploy, Seq: 1, Deploy: &d}, nil); reply.Type != TypeResult {
			t.Fatalf("latency=%v: %s %s", latency, reply.Type, reply.Error)
		}
		if len(seen) != 1 {
			t.Fatalf("latency=%v: actions saw %d distinct tracers, want 1", latency, len(seen))
		}
		for tr := range seen {
			switch {
			case !latency && tr != nil:
				t.Fatalf("deployment without latency telemetry ran with tracer %T attached", tr)
			case latency && sim.KindsOf(tr) != sim.KindSet(sim.TraceStreamDone):
				t.Fatalf("latency deployment's tracer %T consumes kinds %#x, want done only", tr, sim.KindsOf(tr))
			}
		}
		if latency && latencySamples != d.Packets {
			t.Fatalf("latency samples = %d, want one per packet (%d)", latencySamples, d.Packets)
		}
	}
}
