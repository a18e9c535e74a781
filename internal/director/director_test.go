package director

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// startCluster brings up a director and n agents on loopback and
// returns the director plus a shutdown func.
func startCluster(t *testing.T, n int) (*Director, func()) {
	t.Helper()
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a, err := NewAgent(agentName(i), DefaultRegistry())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run returns when the director closes the connection.
			_ = a.Run(addr)
		}()
	}
	if err := d.WaitAgents(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return d, func() {
		_ = d.Close()
		wg.Wait()
	}
}

func agentName(i int) string {
	return "worker-" + string(rune('a'+i))
}

func TestDeployNAT(t *testing.T) {
	d, stop := startCluster(t, 1)
	defer stop()

	res, err := d.Deploy(agentName(0), DeploySpec{
		NF: "nat", Flows: 1024, Packets: 5000, Warmup: 500,
		PacketBytes: 64, Tasks: 16, Seed: 1,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 5000 {
		t.Fatalf("packets = %d", res.Packets)
	}
	if res.Gbps() <= 0 {
		t.Fatalf("throughput = %v", res.Gbps())
	}
	if res.Agent != agentName(0) {
		t.Fatalf("agent = %q", res.Agent)
	}
}

func TestDeployRTCvsInterleaved(t *testing.T) {
	d, stop := startCluster(t, 1)
	defer stop()

	spec := DeploySpec{NF: "nat", Flows: 32768, Packets: 15000, Warmup: 3000, PacketBytes: 64, Seed: 2}
	rtcSpec := spec
	rtcSpec.Tasks = 0 // RTC baseline
	ilSpec := spec
	ilSpec.Tasks = 16

	rtcRes, err := d.Deploy(agentName(0), rtcSpec, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ilRes, err := d.Deploy(agentName(0), ilSpec, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ilRes.Gbps() <= rtcRes.Gbps() {
		t.Fatalf("interleaved (%v Gbps) not faster than RTC (%v Gbps)", ilRes.Gbps(), rtcRes.Gbps())
	}
}

func TestDeployAllParallel(t *testing.T) {
	d, stop := startCluster(t, 3)
	defer stop()

	results, err := d.DeployAll(DeploySpec{
		NF: "sfc", SFCLength: 3, Flows: 512, Packets: 2000, PacketBytes: 64, Tasks: 8, Seed: 3,
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Packets != 2000 {
			t.Fatalf("agent %s processed %d", r.Agent, r.Packets)
		}
	}
}

func TestDeployUPF(t *testing.T) {
	d, stop := startCluster(t, 1)
	defer stop()
	res, err := d.Deploy(agentName(0), DeploySpec{
		NF: "upf-downlink", Flows: 2048, PDRs: 8, Packets: 3000, PacketBytes: 128, Tasks: 16, Seed: 4,
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 3000 {
		t.Fatalf("packets = %d", res.Packets)
	}
}

// TestDeployHeartbeats runs a deployment with StatsEvery set and
// checks the streamed telemetry end to end: the director's handler and
// the agent's local OnStats hook both see every window, and the window
// deltas sum exactly to the final result.
func TestDeployHeartbeats(t *testing.T) {
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var received []StatsReport
	mon := NewMonitor()
	d.SetStatsHandler(func(r StatsReport) {
		mu.Lock()
		received = append(received, r)
		mu.Unlock()
		mon.Observe(r)
	})

	a, err := NewAgent("w-hb", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var local int
	a.OnStats = func(StatsReport) { // runs on the agent goroutine
		mu.Lock()
		local++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Run returns when the director closes the connection.
		_ = a.Run(addr)
	}()
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := d.Deploy("w-hb", DeploySpec{
		NF: "nat", Flows: 1024, Packets: 4000, Warmup: 500,
		PacketBytes: 64, Tasks: 8, Seed: 5, StatsEvery: 1000,
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// The result arrives on the same ordered connection after the last
	// heartbeat, and the handler runs synchronously on the reader
	// goroutine, so every report is visible by now.
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 4 {
		t.Fatalf("heartbeats = %d, want 4", len(received))
	}
	var pkts, cycles, stall uint64
	var bits float64
	for i, r := range received {
		if r.Window != i || r.Agent != "w-hb" || r.NF != "nat" {
			t.Fatalf("report %d = %+v", i, r)
		}
		if r.Packets != 1000 {
			t.Fatalf("window %d packets = %d", i, r.Packets)
		}
		pkts += r.Packets
		bits += r.Bits
		cycles += r.Cycles
		stall += r.Counters.StallCycles
	}
	if pkts != res.Packets || bits != res.Bits || cycles != res.Cycles || stall != res.Counters.StallCycles {
		t.Fatalf("window sums pkts/bits/cycles/stall = %d/%v/%d/%d, result %d/%v/%d/%d",
			pkts, bits, cycles, stall, res.Packets, res.Bits, res.Cycles, res.Counters.StallCycles)
	}

	tab := mon.Table()
	if tab.NumRows() != 1 {
		t.Fatalf("monitor rows = %d", tab.NumRows())
	}
	for _, c := range []struct {
		col  string
		want float64
	}{{"win", 3}, {"total pkts", 4000}} {
		col, err := tab.ColumnIndex(c.col)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tab.CellFloat(0, col); err != nil || got != c.want {
			t.Fatalf("monitor %s = %v (%v), want %v", c.col, got, err, c.want)
		}
	}

	// The deployment has completed, so the agent-side hook has fired for
	// every window (it runs before each heartbeat hits the wire).
	if local != 4 {
		t.Fatalf("agent OnStats calls = %d", local)
	}
}

func TestDeployErrors(t *testing.T) {
	d, stop := startCluster(t, 1)
	defer stop()

	if _, err := d.Deploy("ghost", DeploySpec{NF: "nat", Flows: 1, Packets: 1, PacketBytes: 64}, time.Second); err == nil {
		t.Fatal("unknown agent accepted")
	}
	if _, err := d.Deploy(agentName(0), DeploySpec{NF: "warp", Flows: 16, Packets: 10, PacketBytes: 64}, 10*time.Second); err == nil {
		t.Fatal("unknown NF accepted")
	} else if !strings.Contains(err.Error(), "unknown NF") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := d.Deploy(agentName(0), DeploySpec{NF: "nat"}, time.Second); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestWaitAgentsTimeout(t *testing.T) {
	d := New()
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitAgents(1, 50*time.Millisecond); err == nil {
		t.Fatal("WaitAgents(1) succeeded with no agents")
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent("", DefaultRegistry()); err == nil {
		t.Fatal("nameless agent accepted")
	}
	if _, err := NewAgent("x", nil); err == nil {
		t.Fatal("registry-less agent accepted")
	}
}

func TestDeploySpecValidate(t *testing.T) {
	ok := DeploySpec{NF: "nat", Flows: 1, Packets: 1, PacketBytes: 64}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DeploySpec{
		{Flows: 1, Packets: 1, PacketBytes: 64},
		{NF: "nat", Packets: 1, PacketBytes: 64},
		{NF: "nat", Flows: 1, PacketBytes: 64},
		{NF: "nat", Flows: 1, Packets: 1, PacketBytes: 32},
		{NF: "nat", Flows: 1, Packets: 1, PacketBytes: 64, Tasks: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, b)
		}
	}
}

func TestResultGbps(t *testing.T) {
	r := Result{Bits: 1e9, Cycles: 1000, FreqHz: 1e9}
	// 1e9 bits in 1 microsecond = 1e15 bps... sanity: cycles/freq = 1µs.
	if g := r.Gbps(); g < 0.9e6 || g > 1.1e6 {
		t.Fatalf("Gbps = %v", g)
	}
	if (Result{}).Gbps() != 0 {
		t.Fatal("zero result must be 0")
	}
}

// TestAgentPoolsCores: an agent runs every deployment — and every dump
// replay — on one pooled core, and a recycled core is indistinguishable
// from a new one: two consecutive deploys on one agent reply
// byte-for-byte what two fresh agents reply, and their replayed flight
// dumps are byte-identical too.
func TestAgentPoolsCores(t *testing.T) {
	specs := []DeploySpec{
		{NF: "nat", Flows: 2048, Packets: 4000, Warmup: 500, PacketBytes: 64, Tasks: 16, Seed: 3, StatsEvery: 1000, Latency: true},
		{NF: "upf-downlink", Flows: 512, Packets: 1500, PacketBytes: 128, Seed: 4},
	}
	deploy := func(a *Agent, seq int) ([]byte, []byte) {
		t.Helper()
		reply := a.execute(Envelope{Type: TypeDeploy, Seq: seq, Deploy: &specs[seq-1]}, nil)
		if reply.Type != TypeResult {
			t.Fatalf("deploy %d: %s %s", seq, reply.Type, reply.Error)
		}
		b, err := json.Marshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		var trace []byte
		a.OnDump = func(info DumpInfo, tr []byte) {
			if info.Error != "" {
				t.Fatalf("deploy %d: dump: %s", seq, info.Error)
			}
			trace = tr
		}
		a.dumpReq.Store(true)
		a.maybeDump(nil)
		if len(trace) == 0 {
			t.Fatalf("deploy %d: no dump rendered", seq)
		}
		return b, trace
	}
	newAgent := func() *Agent {
		a, err := NewAgent("w", DefaultRegistry())
		if err != nil {
			t.Fatal(err)
		}
		a.DumpDir = t.TempDir()
		return a
	}

	pooled := newAgent()
	for seq := 1; seq <= len(specs); seq++ {
		got, gotDump := deploy(pooled, seq)
		want, wantDump := deploy(newAgent(), seq)
		if !bytes.Equal(got, want) {
			t.Errorf("deploy %d on the reused agent:\n%s\non a fresh agent:\n%s", seq, got, want)
		}
		if !bytes.Equal(gotDump, wantDump) {
			t.Errorf("deploy %d: flight dump differs between the reused and a fresh agent", seq)
		}
	}
	// One core built by the first deploy; its dump, the second deploy
	// and the second dump all reuse it.
	if news, reuses := pooled.cores.Stats(); news != 1 || reuses != 3 {
		t.Errorf("core pool Stats = (%d constructed, %d reused), want (1, 3)", news, reuses)
	}
}
