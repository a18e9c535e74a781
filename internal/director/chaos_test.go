package director

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/faultnet"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
)

// waitGoroutines polls until the goroutine count drains to at most
// want, failing with a full stack dump if it doesn't within the
// deadline — the no-leak assertion of the chaos soak.
func waitGoroutines(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still alive (want <= %d) after %v:\n%s", n, want, within, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSoak is the control-plane fault drill: a director and two
// reconnecting agents talk exclusively through faultnet connections
// that reset mid-frame, chunk writes, and insert latency. Every
// DeployAll must end in either correct results or a typed error
// attributing the failure to an agent — never a hang, never a wrong
// count — and once the cluster is torn down no goroutine may linger.
// The three seeds are fixed so CI reruns the same fault scripts.
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { chaosSoak(t, seed) })
	}
}

func chaosSoak(t *testing.T, seed int64) {
	before := runtime.NumGoroutine()

	inj, err := faultnet.New(faultnet.Config{
		Seed:          seed,
		CutProb:       0.75,
		CutAfterMin:   600, // past the register+deploy handshake...
		CutAfterMax:   6000,
		MaxWriteChunk: 7, // ...and every frame arrives shredded
		Latency:       500 * time.Microsecond,
		LatencyEvery:  16,
	})
	if err != nil {
		t.Fatal(err)
	}

	d := New()
	d.Retries = 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.ListenOn(inj.WrapListener(ln))
	addr := ln.Addr().String()

	mon := NewMonitor()
	mon.SLO = SLO{MinMpps: 1e6} // impossible: every window breaches
	reg := obs.NewRegistry()
	mon.Register(reg)
	d.SetStatsHandler(mon.Observe)
	d.SetLivenessHandler(mon.SetLive)
	if err := d.EnableLiveness(100*time.Millisecond, 5); err != nil {
		t.Fatal(err)
	}

	names := []string{"chaos-a", "chaos-b"}
	var wg sync.WaitGroup
	agents := make([]*Agent, 0, len(names))
	for i, name := range names {
		a, err := NewAgent(name, DefaultRegistry())
		if err != nil {
			t.Fatal(err)
		}
		a.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(conn), nil
		}
		agents = append(agents, a)
		bo := Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.2, Seed: seed*10 + int64(i) + 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Serve(addr, bo); err != nil {
				t.Errorf("agent %s: %v", name, err)
			}
		}()
	}

	spec := DeploySpec{
		NF: "nat", Flows: 256, Packets: 1000, PacketBytes: 64,
		Tasks: 4, Seed: 11, StatsEvery: 300, Latency: true,
	}
	const rounds = 4
	fullOK := 0
	for round := 0; round < rounds; round++ {
		if err := d.WaitAgents(len(names), 15*time.Second); err != nil {
			t.Fatal(err)
		}
		results, err := d.DeployAll(spec, 30*time.Second)
		for _, r := range results {
			if r.Packets != spec.Packets {
				t.Fatalf("round %d: agent %s returned %d packets, want %d", round, r.Agent, r.Packets, spec.Packets)
			}
		}
		tableAgreesWithMetrics(t, round, mon, reg, spec.Packets)
		if err == nil {
			if len(results) == len(names) {
				fullOK++
				// Results just arrived, so both agents were heard moments
				// ago: the liveness checker must agree they're alive.
				d.mu.Lock()
				for _, name := range names {
					if p := d.agents[name]; p == nil || p.dead {
						d.mu.Unlock()
						t.Fatalf("round %d: agent %s marked dead right after replying", round, name)
					}
				}
				d.mu.Unlock()
			}
			continue
		}
		var dae *DeployAllError
		if !errors.As(err, &dae) {
			// The only other legal failure: both agents were between
			// connections when DeployAll sampled.
			if !strings.Contains(err.Error(), "no agents") {
				t.Fatalf("round %d: untyped DeployAll error: %v", round, err)
			}
			continue
		}
		for agent, aerr := range dae.Errors {
			var ae *AgentError
			if !errors.As(aerr, &ae) || ae.Agent != agent {
				t.Fatalf("round %d: unattributed failure for %s: %v", round, agent, aerr)
			}
		}
	}
	if fullOK == 0 {
		t.Fatalf("no round fully succeeded across %d rounds (seed %d)", rounds, seed)
	}

	// The chaos was real: connections were wrapped and faults delivered.
	st := inj.Stats()
	if st.Conns < int64(len(names))+1 || st.SplitWrites == 0 {
		t.Fatalf("injector idle: %+v", st)
	}
	t.Logf("seed %d: %d conns, %d cuts, %d split writes, %d delayed ops, %d/%d clean rounds",
		seed, st.Conns, st.Cuts, st.SplitWrites, st.DelayedOps, fullOK, rounds)

	// Telemetry survived the churn: the table renders every agent and
	// the cluster histogram only ever shrinks to live runs, never
	// corrupts.
	if rows := mon.Table().NumRows(); rows < len(names) {
		t.Fatalf("monitor rows = %d", rows)
	}
	if mon.ClusterLatency() == nil {
		t.Fatal("cluster latency nil")
	}

	for _, a := range agents {
		a.Stop()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	waitGoroutines(t, before+2, 5*time.Second)
}

// tableAgreesWithMetrics asserts that the live table and /metrics read
// one fold: no agent's run total exceeds one run's packets (a restarted
// run's windows are not double-counted), and gunfu_packets_total is the
// table's total pkts summed. A heartbeat from a run DeployAll gave up on
// may still land between the two reads, so a disagreement is retried
// until the fold settles.
func tableAgreesWithMetrics(t *testing.T, round int, mon *Monitor, reg *obs.Registry, perRun uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tab := mon.Table()
		col, err := tab.ColumnIndex("total pkts")
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for row := 0; row < tab.NumRows(); row++ {
			total, err := tab.CellFloat(row, col)
			if err != nil {
				t.Fatal(err)
			}
			if total > float64(perRun) {
				t.Fatalf("round %d: table row %d totals %v packets, more than one run's %d", round, row, total, perRun)
			}
			sum += total
		}
		exposed := exposedSample(t, reg, "gunfu_packets_total")
		if exposed == sum {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d: gunfu_packets_total %v, table total pkts sum to %v", round, exposed, sum)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAgentReconnect severs a live agent's connection and checks that
// Serve's backoff redial plus the director's deploy retries ride it
// out: the deploy issued during the outage still returns the result.
func TestAgentReconnect(t *testing.T) {
	d := New()
	d.Retries = 4
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent("w-rc", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	a.Dial = func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Serve(addr, Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.2, Seed: 42})
	}()
	defer func() {
		a.Stop()
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	spec := DeploySpec{NF: "nat", Flows: 64, Packets: 400, PacketBytes: 64, Tasks: 2, Seed: 5}
	if _, err := d.Deploy("w-rc", spec, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever the link out from under everyone.
	mu.Lock()
	conns[len(conns)-1].Close()
	mu.Unlock()

	res, err := d.Deploy("w-rc", spec, 20*time.Second)
	if err != nil {
		t.Fatalf("deploy across reconnect: %v", err)
	}
	if res.Packets != spec.Packets {
		t.Fatalf("packets = %d", res.Packets)
	}
	mu.Lock()
	dials := len(conns)
	mu.Unlock()
	if dials < 2 {
		t.Fatalf("agent dialed %d times, never reconnected", dials)
	}
}

// TestServeGivesUp pins the bounded-retry contract: with Attempts set,
// Serve stops redialing a dead address and reports the last error.
func TestServeGivesUp(t *testing.T) {
	// Bind and immediately close a port so the address is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	a, err := NewAgent("w-gone", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = a.Serve(addr, Backoff{Min: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 3, Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("giving up took %v", elapsed)
	}
}

// TestDeployReplayIdempotent drives an agent from a bare-wire fake
// director: the same deploy sequence ID sent twice must execute once
// and answer twice with byte-identical results (the reply slot), a
// fresh sequence ID must execute again, and its resend is answered
// from the slot in turn.
func TestDeployReplayIdempotent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	runs := 0
	reg := deploy.Registry{
		"nat": func(as *mem.AddressSpace, d DeploySpec) (*model.Program, rt.Source, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			return deploy.DefaultRegistry()["nat"](as, d)
		},
	}
	a, err := NewAgent("w-dup", reg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Run(ln.Addr().String())
	}()
	defer wg.Wait()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mr := newMsgReader(conn)
	if env, err := mr.next(); err != nil || env.Type != TypeRegister || env.Agent != "w-dup" {
		t.Fatalf("registration = %+v, %v", env, err)
	}
	send := func(env Envelope) {
		t.Helper()
		b, err := encode(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	// awaitResult returns the next result and its frame re-encoded
	// (decode→encode is canonical, so equal frames encode equal bytes).
	awaitResult := func() (Result, []byte) {
		t.Helper()
		for {
			env, err := mr.next()
			if err != nil {
				t.Fatalf("reading reply: %v", err)
			}
			switch env.Type {
			case TypeStats, TypeDumpDone:
				continue
			case TypeResult:
				b, err := encode(env)
				if err != nil {
					t.Fatal(err)
				}
				return *env.Result, b
			default:
				t.Fatalf("reply = %+v", env)
			}
		}
	}

	spec := DeploySpec{NF: "nat", Flows: 64, Packets: 300, PacketBytes: 64, Tasks: 2, Seed: 3}
	dep := Envelope{Type: TypeDeploy, Seq: 7, Deploy: &spec}
	send(dep)
	r1, _ := awaitResult()
	send(dep) // replay: same sequence ID
	r2, _ := awaitResult()
	mu.Lock()
	ran := runs
	mu.Unlock()
	if ran != 1 {
		t.Fatalf("replayed deploy executed %d times", ran)
	}
	if r1 != r2 {
		t.Fatalf("cached reply drifted:\n first %+v\nsecond %+v", r1, r2)
	}

	dep.Seq = 8 // a genuinely new deployment runs again
	send(dep)
	_, f1 := awaitResult()
	mu.Lock()
	ran = runs
	mu.Unlock()
	if ran != 2 {
		t.Fatalf("fresh sequence executed %d times total", ran)
	}
	send(dep) // the slot now holds seq 8's reply
	_, f2 := awaitResult()
	mu.Lock()
	ran = runs
	mu.Unlock()
	if ran != 2 {
		t.Fatalf("replayed seq 8 executed again: %d runs total", ran)
	}
	if !bytes.Equal(f1, f2) {
		t.Fatalf("replayed seq 8 reply drifted:\n first %s\nsecond %s", f1, f2)
	}

	send(Envelope{Type: TypeShutdown})
}

// dialFakeAgent registers name with the director at addr over a bare
// connection and forwards every frame the director sends on it; the
// channel closes when the connection does.
func dialFakeAgent(t *testing.T, addr, name string) (net.Conn, <-chan Envelope) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encode(Envelope{Type: TypeRegister, Agent: name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	frames := make(chan Envelope, 8)
	go func() {
		defer close(frames)
		mr := newMsgReader(conn)
		for {
			env, err := mr.next()
			if err != nil {
				return
			}
			frames <- env
		}
	}()
	return conn, frames
}

// TestDeployOneInFlightPerAgent pins the rule the agent's one-entry
// reply slot relies on: while a deploy to a name is unanswered, a
// second Deploy to that name sends nothing; a resend after the agent
// reconnects carries the same sequence ID; and the queued deploy goes
// out, with a larger sequence ID, only once the first is answered.
func TestDeployOneInFlightPerAgent(t *testing.T) {
	d := New()
	d.Retries = 3
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, frames := dialFakeAgent(t, addr, "w")
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	next := func(frames <-chan Envelope) Envelope {
		t.Helper()
		select {
		case env, ok := <-frames:
			if !ok || env.Type != TypeDeploy {
				t.Fatalf("frame = %+v (open %v), want a deploy", env, ok)
			}
			return env
		case <-time.After(10 * time.Second):
			t.Fatal("no deploy frame")
		}
		return Envelope{}
	}
	quiet := func(frames <-chan Envelope, what string) {
		t.Helper()
		select {
		case env := <-frames:
			t.Fatalf("%s: director sent %+v", what, env)
		case <-time.After(200 * time.Millisecond):
		}
	}
	answer := func(conn net.Conn, env Envelope) {
		t.Helper()
		res := Result{Agent: "w", Result: rt.Result{Packets: env.Deploy.Packets}}
		b, err := encode(Envelope{Type: TypeResult, Seq: env.Seq, Agent: "w", Result: &res})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	type outcome struct {
		res Result
		err error
	}
	start := func(packets uint64) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			spec := DeploySpec{NF: "nat", Flows: 64, Packets: packets, PacketBytes: 64, Tasks: 2}
			res, err := d.Deploy("w", spec, 30*time.Second)
			out <- outcome{res, err}
		}()
		return out
	}

	first := start(100)
	n := next(frames)
	second := start(200)
	quiet(frames, "second deploy while seq N is unanswered")

	// Drop the connection and register again: the resend is seq N.
	conn.Close()
	conn, frames = dialFakeAgent(t, addr, "w")
	defer conn.Close()
	if resent := next(frames); resent.Seq != n.Seq || resent.Deploy.Packets != 100 {
		t.Fatalf("resend = seq %d, %d packets; want seq %d, 100 packets", resent.Seq, resent.Deploy.Packets, n.Seq)
	}
	quiet(frames, "second deploy while the resend of seq N is unanswered")

	answer(conn, n)
	m := next(frames)
	if m.Seq <= n.Seq || m.Deploy.Packets != 200 {
		t.Fatalf("queued deploy = seq %d, %d packets; want seq > %d, 200 packets", m.Seq, m.Deploy.Packets, n.Seq)
	}
	answer(conn, m)
	for i, o := range []outcome{<-first, <-second} {
		if want := uint64(100 * (i + 1)); o.err != nil || o.res.Packets != want {
			t.Fatalf("deploy %d = %+v, %v; want %d packets", i+1, o.res, o.err, want)
		}
	}
}

// TestDeployAllWedgedAgent pins the shared-deadline contract: one
// registered-but-unresponsive agent costs DeployAll its own result and
// a typed timeout, not wall-clock beyond the shared deadline, and the
// healthy agent's result still comes back.
func TestDeployAllWedgedAgent(t *testing.T) {
	d := New()
	d.Retries = 2
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewAgent("real", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Run(addr)
	}()
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()

	// The wedge: registers like an agent, drains its socket so the
	// director's writes succeed, and never answers anything.
	wedge, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Close()
	regFrame, err := encode(Envelope{Type: TypeRegister, Agent: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wedge.Write(regFrame); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := wedge.Read(buf); err != nil {
				return
			}
		}
	}()
	if err := d.WaitAgents(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	const timeout = 3 * time.Second
	start := time.Now()
	results, err := d.DeployAll(DeploySpec{
		NF: "nat", Flows: 64, Packets: 400, PacketBytes: 64, Tasks: 2, Seed: 6,
	}, timeout)
	elapsed := time.Since(start)
	if elapsed > timeout+5*time.Second {
		t.Fatalf("wedged agent stretched DeployAll to %v (timeout %v)", elapsed, timeout)
	}
	if len(results) != 1 || results[0].Agent != "real" || results[0].Packets != 400 {
		t.Fatalf("results = %+v", results)
	}
	var dae *DeployAllError
	if !errors.As(err, &dae) {
		t.Fatalf("err = %v", err)
	}
	werr, ok := dae.Errors["wedged"]
	if !ok || len(dae.Errors) != 1 {
		t.Fatalf("per-agent errors = %v", dae.Errors)
	}
	var ae *AgentError
	if !errors.As(werr, &ae) || ae.Agent != "wedged" {
		t.Fatalf("wedged error unattributed: %v", werr)
	}
	if !errors.Is(err, ErrDeployTimeout) {
		t.Fatalf("not a timeout: %v", err)
	}
}
