package director

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// DefaultRegistry forwards deploy.DefaultRegistry, kept for the benchmark.
func DefaultRegistry() deploy.Registry { return deploy.DefaultRegistry() }

// DefaultFlightEvents is the default number of events a flight dump
// holds: enough cycles of context around an anomaly (roughly the last
// few thousand packets at ~30 events/packet) in a ~3 MB ring, allocated
// at the agent's first dump.
const DefaultFlightEvents = 1 << 16

// Agent is the per-host runtime agent: it registers with the director
// and executes deployments on a local simulated core.
type Agent struct {
	name string
	reg  deploy.Registry
	// OnStats, when set, observes every heartbeat this agent emits
	// (StatsEvery deployments only), before it goes on the wire. Local
	// exporters — the worker's metrics registry — hang off this hook.
	OnStats func(StatsReport)
	// OnDump, when set, observes every flight dump the agent produces,
	// with the rendered Perfetto JSON (the worker serves the newest one
	// at /debug/flight).
	OnDump func(info DumpInfo, trace []byte)
	// FlightEvents is the number of events a flight dump holds — the
	// newest ones of the deployment so far (0 disables dumps). NewAgent
	// defaults it to DefaultFlightEvents: the black box should be on
	// unless someone turns it off. Deployments run untraced either way;
	// a dump replays the deployment with the recorder attached. The
	// ring is sized when the first dump allocates it.
	FlightEvents int
	// DumpDir is where flight dumps land (defaults to os.TempDir()).
	DumpDir string
	// Dial overrides the transport dialer — the seam tests and the
	// chaos harness use to interpose faultnet. Nil dials plain TCP.
	Dial func(addr string) (net.Conn, error)

	// dumpReq is the one cross-goroutine dump surface: the connection
	// reader sets it, the execute goroutine takes it at its next safe
	// point (see maybeDump).
	dumpReq atomic.Bool
	// last is the replay recipe of the most recent deployment, flight
	// the dump ring (allocated by the first dump); both owned by the
	// execute goroutine.
	last    *recipe
	flight  *obs.FlightRecorder
	dumpSeq int

	// cores recycles the deployment core, a sim.DefaultConfig one: a
	// fresh core is ~4 MB of tag, stamp and directory arrays, a pooled
	// one a generation reset. Owned by the execute goroutine.
	cores *sim.CorePool

	// reply is the last completed deploy's reply. A deploy whose
	// non-zero sequence ID matches it is a director resend (a retry
	// after a timeout or a reconnect) and is answered from here instead
	// of running twice. One slot is enough: the director holds the
	// agent name's deploy lock across every retry and reuses the
	// sequence ID, so a resend can only ask for the deployment in
	// flight, and resends arrive in order on a connection. Owned by the
	// runOnce loop goroutine, which serves one connection at a time, so
	// the slot survives reconnects.
	reply Envelope

	stop     chan struct{}
	stopOnce sync.Once
	connMu   sync.Mutex
	conn     net.Conn
}

// NewAgent builds an agent with the given deployable registry.
func NewAgent(name string, reg deploy.Registry) (*Agent, error) {
	if name == "" {
		return nil, fmt.Errorf("director: agent needs a name")
	}
	if len(reg) == 0 {
		return nil, fmt.Errorf("director: agent needs a registry")
	}
	return &Agent{
		name:         name,
		reg:          reg,
		FlightEvents: DefaultFlightEvents,
		cores:        sim.NewCorePool(sim.DefaultConfig()),
		stop:         make(chan struct{}),
	}, nil
}

// Backoff parameterizes Serve's reconnect loop.
type Backoff struct {
	// Min and Max bound the capped exponential backoff between
	// reconnect attempts.
	Min, Max time.Duration
	// Jitter is the ± fraction applied to each delay (0..1), so a
	// fleet of agents doesn't redial in lockstep.
	Jitter float64
	// Attempts caps consecutive failed connection attempts before
	// Serve gives up (0 = retry forever). The counter resets after
	// every successful registration.
	Attempts int
	// Seed fixes the jitter sequence; 0 derives one from the agent
	// name, which keeps runs deterministic while still desynchronizing
	// distinct agents.
	Seed int64
}

// DefaultBackoff is the production reconnect policy: 50 ms doubling to
// a 2 s cap, ±20 % jitter, never giving up.
func DefaultBackoff() Backoff {
	return Backoff{Min: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2}
}

// Run connects to the director and serves deployments until the
// connection closes or a shutdown arrives — one connection, no
// reconnect (tests and one-shot runs). Serve is the resilient variant.
func (a *Agent) Run(addr string) error {
	_, _, err := a.runOnce(addr)
	return err
}

// Serve connects to the director and serves deployments, redialing
// with capped jittered exponential backoff whenever the connection
// drops — the production entry point (gunfu-worker -reconnect). It
// returns nil after a director-ordered shutdown or Stop, and the last
// connection error once bo.Attempts consecutive attempts fail without
// registering.
func (a *Agent) Serve(addr string, bo Backoff) error {
	if bo.Min <= 0 {
		bo.Min = DefaultBackoff().Min
	}
	if bo.Max < bo.Min {
		bo.Max = bo.Min
	}
	seed := bo.Seed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(a.name))
		seed = int64(h.Sum64())
	}
	rng := rand.New(rand.NewSource(seed))
	delay := bo.Min
	failures := 0
	for {
		if a.stopped() {
			return nil
		}
		shutdown, registered, err := a.runOnce(addr)
		if shutdown || a.stopped() {
			return nil
		}
		if registered {
			// The session was live; whatever killed it is fresh news.
			failures = 0
			delay = bo.Min
		} else {
			failures++
			if bo.Attempts > 0 && failures >= bo.Attempts {
				if err == nil {
					err = fmt.Errorf("connection closed before registration")
				}
				return fmt.Errorf("director: agent %s: giving up after %d attempts: %w", a.name, failures, err)
			}
		}
		d := delay
		if bo.Jitter > 0 {
			d += time.Duration(bo.Jitter * (2*rng.Float64() - 1) * float64(delay))
		}
		select {
		case <-a.stop:
			return nil
		case <-time.After(d):
		}
		delay *= 2
		if delay > bo.Max {
			delay = bo.Max
		}
	}
}

// Stop aborts Run/Serve: it closes the active connection and prevents
// further redials. Safe to call from any goroutine, more than once.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.connMu.Lock()
	if a.conn != nil {
		_ = a.conn.Close()
	}
	a.connMu.Unlock()
}

func (a *Agent) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

func (a *Agent) setConn(c net.Conn) {
	a.connMu.Lock()
	a.conn = c
	a.connMu.Unlock()
}

// sendOn writes one envelope under DefaultWriteTimeout, so a director
// that stops draining its socket fails the send instead of wedging a
// deployment. Only the runOnce loop goroutine writes to the
// connection, so sends need no lock.
func sendOn(conn net.Conn, env Envelope) error {
	b, err := encode(env)
	if err != nil {
		return err
	}
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	_, err = conn.Write(b)
	return err
}

// runOnce serves one connection's lifetime. A reader goroutine drains
// the connection so control messages (flight-dump requests) reach the
// agent even while a deployment is executing: the reader flags the
// recorder, and the measure loop honors the flag at the next window
// boundary. Returns shutdown=true on a director-ordered shutdown,
// registered=true once the registration hit the wire (Serve uses it to
// reset its failure budget), and a nil error when the director simply
// closed the connection.
func (a *Agent) runOnce(addr string) (shutdown, registered bool, err error) {
	dial := a.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dial(addr)
	if err != nil {
		return false, false, fmt.Errorf("director: agent %s: %w", a.name, err)
	}
	a.setConn(conn)
	defer func() {
		a.setConn(nil)
		_ = conn.Close()
	}()
	send := func(env Envelope) error { return sendOn(conn, env) }
	if err := send(Envelope{Type: TypeRegister, Agent: a.name}); err != nil {
		return false, false, fmt.Errorf("director: agent %s: register: %w", a.name, err)
	}

	dumps := a.FlightEvents > 0
	msgs := make(chan Envelope, 16)
	done := make(chan struct{})
	defer close(done)
	go func() {
		mr := newMsgReader(conn)
		for {
			env, err := mr.next()
			if err != nil {
				close(msgs)
				return
			}
			if env.Type == TypeDump && dumps {
				// Reaches a mid-deployment agent: the measure loop dumps
				// at the next window boundary. The envelope is still
				// forwarded so an idle agent handles it promptly.
				a.dumpReq.Store(true)
			}
			select {
			case msgs <- env:
			case <-done:
				return // runOnce already returned; don't block forever
			}
		}
	}()

	for env := range msgs {
		switch env.Type {
		case TypeShutdown:
			return true, true, nil
		case TypeDeploy:
			// A replayed deploy (a director retry after a timeout or a
			// reconnect) is answered from the reply slot, not run twice.
			if env.Seq == 0 || env.Seq != a.reply.Seq {
				a.reply = a.execute(env, send)
			}
			if err := send(a.reply); err != nil {
				return false, true, fmt.Errorf("director: agent %s: reply: %w", a.name, err)
			}
			// A dump requested in the deployment's last moments may not
			// have hit a window boundary; honor it now.
			a.maybeDump(send)
		case TypeDump:
			a.maybeDump(send)
		}
	}
	return false, true, nil // director closed the connection
}

// maybeDump consumes a pending flight-dump request: replay the last
// deployment with the recorder attached (see replayDump), render the
// ring as Perfetto JSON, write it under DumpDir, notify local hooks and
// the director. Runs only on the agent's execute goroutine (measure
// loop, post-deployment, or idle loop), where the live deployment is
// quiescent.
func (a *Agent) maybeDump(send func(Envelope) error) {
	if a.FlightEvents <= 0 || !a.dumpReq.CompareAndSwap(true, false) {
		return
	}
	info := DumpInfo{Agent: a.name}
	trace, err := a.replayDump()
	if err != nil {
		info.Error = err.Error()
	} else {
		info.Events = a.flight.Len()
		dir := a.DumpDir
		if dir == "" {
			dir = os.TempDir()
		}
		path := filepath.Join(dir, fmt.Sprintf("gunfu-flight-%s-%d.json", a.name, a.dumpSeq))
		a.dumpSeq++
		if err := os.WriteFile(path, trace, 0o644); err != nil {
			info.Error = err.Error()
		} else {
			info.Path = path
		}
	}
	if a.OnDump != nil {
		a.OnDump(info, trace)
	}
	if send != nil {
		_ = send(Envelope{Type: TypeDumpDone, Agent: a.name, Dump: &info})
	}
}

// recipe is what it takes to re-execute a deployment: its spec and the
// Run calls it completed so far, each with the result it returned live.
type recipe struct {
	spec DeploySpec
	runs []recipeRun
}

type recipeRun struct {
	n   uint64    // packets asked of Run
	res rt.Result // what the live Run returned
}

// replayDump re-executes the last deployment's completed Run calls —
// same factory, fresh address space, reset core — with the flight
// recorder attached, checks the replay against the live run, and
// renders the ring. A deployment is a pure function of its spec (the
// factories are seeded, the simulator deterministic, tracing
// counter-neutral), so the ring holds exactly what a recorder attached
// to the live run would hold; a replay whose packets, cycles or
// counters differ from the live run's is reported, not rendered.
//
// Only the tail is traced: the recorder is attached at the last Run
// boundary with at least Cap/2 packets after it — every packet emits at
// least a TraceRx and a TraceStreamDone, so that tail alone fills the
// ring — and the prefix runs untraced.
func (a *Agent) replayDump() ([]byte, error) {
	rec := a.last
	if rec == nil {
		return nil, fmt.Errorf("no deployment has run; nothing to replay")
	}
	if a.flight == nil {
		a.flight = obs.NewFlightRecorder(a.FlightEvents)
	}
	core, err := a.cores.Get()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer a.cores.Put(core)
	prog, run, err := a.reg.Build(core, rec.spec)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	from := 0
	var after uint64
	for i := len(rec.runs) - 1; i > 0; i-- {
		if after += rec.runs[i].res.Packets; 2*after >= uint64(a.flight.Cap()) {
			from = i
			break
		}
	}
	a.flight.Reset()
	for i, r := range rec.runs {
		if i == from {
			core.SetTracer(a.flight)
		}
		res, err := run(r.n)
		if err != nil {
			return nil, fmt.Errorf("replay diverged from the live run at Run call %d of %d: %w", i+1, len(rec.runs), err)
		}
		if d := divergence(r.res, res); d != "" {
			return nil, fmt.Errorf("replay diverged from the live run at Run call %d of %d: %s", i+1, len(rec.runs), d)
		}
	}
	core.SetTracer(nil) // delivers the tail
	var buf bytes.Buffer
	if err := a.flight.DumpPerfetto(&buf, prog, a.cores.Config().FreqHz); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// divergence names the first simulated quantity on which a replayed Run
// differs from the live one, or returns "".
func divergence(live, replay rt.Result) string {
	switch {
	case live.Packets != replay.Packets:
		return fmt.Sprintf("packets %d live, %d replayed", live.Packets, replay.Packets)
	case live.Cycles != replay.Cycles:
		return fmt.Sprintf("cycles %d live, %d replayed", live.Cycles, replay.Cycles)
	case live.Counters != replay.Counters:
		return fmt.Sprintf("counters %+v live, %+v replayed", live.Counters, replay.Counters)
	}
	return ""
}

// execute runs one deployment and builds the reply envelope. send, when
// non-nil, carries mid-run TypeStats heartbeats back to the director.
func (a *Agent) execute(env Envelope, send func(Envelope) error) Envelope {
	fail := func(err error) Envelope {
		return Envelope{Type: TypeError, Seq: env.Seq, Agent: a.name, Error: err.Error()}
	}
	if env.Deploy == nil {
		return fail(fmt.Errorf("deploy message without spec"))
	}
	d := *env.Deploy
	if err := d.Validate(); err != nil {
		return fail(err)
	}
	core, err := a.cores.Get()
	if err != nil {
		return fail(err)
	}
	// Put flushes the run's last trace events into the probe, detaches
	// it and resets the core.
	defer a.cores.Put(core)
	_, live, err := a.reg.Build(core, d)
	if err != nil {
		return fail(err)
	}

	// The only live tap is the latency probe, when the spec asks for
	// latency telemetry: it consumes stream-done events alone, so the
	// core builds no others. Flight dumps come from replays.
	var probe *obs.LatencyProbe
	if d.Latency {
		probe = obs.NewLatencyProbe()
		core.SetTracer(probe)
	}

	// Every completed Run call extends the replay recipe a dump re-runs.
	rec := &recipe{spec: d}
	a.last = rec
	run := func(n uint64) (rt.Result, error) {
		res, err := live(n)
		if err == nil {
			rec.runs = append(rec.runs, recipeRun{n: n, res: res})
		}
		return res, err
	}

	if d.Warmup > 0 {
		if _, err := run(d.Warmup); err != nil {
			return fail(err)
		}
		if probe != nil {
			// Warmup latencies are not part of the measured windows.
			probe.TakeWindow()
		}
	}
	res, err := a.measure(d, env.Seq, run, probe, send)
	if err != nil {
		return fail(err)
	}

	return Envelope{
		Type: TypeResult, Seq: env.Seq, Agent: a.name,
		Result: &Result{Agent: a.name, Result: res},
	}
}

// measure runs the measured window, either in one piece or — when the
// spec asks for telemetry — in StatsEvery-packet chunks with a
// heartbeat after each. The returned result totals the whole window.
// Window boundaries are also where the agent is quiescent, so each one
// services any pending flight-dump request.
func (a *Agent) measure(d DeploySpec, seq int, run func(uint64) (rt.Result, error), probe *obs.LatencyProbe, send func(Envelope) error) (rt.Result, error) {
	if d.StatsEvery == 0 {
		res, err := run(d.Packets)
		a.maybeDump(send)
		return res, err
	}
	var total rt.Result
	for window, remaining := 0, d.Packets; remaining > 0; window++ {
		n := d.StatsEvery
		if n > remaining {
			n = remaining
		}
		r, err := run(n)
		if err != nil {
			return rt.Result{}, err
		}
		total = total.Add(r)
		rep := StatsReport{Agent: a.name, NF: d.NF, Window: window, Result: r}
		if probe != nil {
			rep.Latency = probe.TakeWindow()
		}
		if a.OnStats != nil {
			a.OnStats(rep)
		}
		if send != nil {
			if err := send(Envelope{Type: TypeStats, Seq: seq, Agent: a.name, Stats: &rep}); err != nil {
				// The connection died mid-run. The deployment itself is
				// healthy, so finish it — the result lands in the reply
				// slot and the director's replayed deploy (after the
				// agent reconnects) is answered from there. Heartbeats
				// into the dead connection stop; local hooks keep firing.
				send = nil
			}
		}
		a.maybeDump(send)
		if r.Packets < n {
			break // source drained early
		}
		remaining -= n
	}
	return total, nil
}
