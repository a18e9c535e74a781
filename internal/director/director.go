package director

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// DefaultWriteTimeout bounds every control-plane wire send. A peer
// that stops draining its socket fails the send instead of wedging the
// sender forever; the Director and the Agent both send under it.
const DefaultWriteTimeout = 10 * time.Second

// ErrDeployTimeout reports a deployment that produced no reply within
// its deadline, across every retry. Check with errors.Is.
var ErrDeployTimeout = errors.New("deploy timed out")

// ErrUnknownAgent reports a deployment addressed to an agent that has
// never registered with this director. Check with errors.Is.
var ErrUnknownAgent = errors.New("unknown agent")

// AgentError attributes a control-plane failure to one agent. Every
// error Deploy and DeployAll return for a specific agent is one of
// these, so callers can always answer "which agent, and why".
type AgentError struct {
	// Agent is the offending agent's name.
	Agent string
	// Err is the underlying failure (ErrDeployTimeout, ErrUnknownAgent,
	// an agent-reported error, ...).
	Err error
}

func (e *AgentError) Error() string { return fmt.Sprintf("director: agent %s: %v", e.Agent, e.Err) }
func (e *AgentError) Unwrap() error { return e.Err }

// DeployAllError aggregates the per-agent failures of a DeployAll that
// partially succeeded. The successful agents' results are still
// returned alongside it.
type DeployAllError struct {
	// Errors maps each failed agent to its *AgentError.
	Errors map[string]error
}

func (e *DeployAllError) Error() string {
	names := make([]string, 0, len(e.Errors))
	for n := range e.Errors {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, e.Errors[n].Error())
	}
	msg := ""
	for i, p := range parts {
		if i > 0 {
			msg += "; "
		}
		msg += p
	}
	return fmt.Sprintf("director: %d agent(s) failed: %s", len(e.Errors), msg)
}

// Unwrap exposes the per-agent errors to errors.Is/errors.As.
func (e *DeployAllError) Unwrap() []error {
	errs := make([]error, 0, len(e.Errors))
	for _, err := range e.Errors {
		errs = append(errs, err)
	}
	return errs
}

// Director is the control-plane server: it accepts runtime-agent
// connections, deploys NFs to them, and collects results.
type Director struct {
	// Retries is how many times a timed-out or failed deploy send is
	// retried before Deploy gives up. Replayed deploys reuse their
	// sequence ID, and agents deduplicate on it, so a retry that races
	// a slow first attempt cannot run the deployment twice.
	Retries int

	ln net.Listener

	mu sync.Mutex
	// agents holds one record per agent name ever registered.
	agents map[string]*peer
	seq    int
	closed bool
	// arrival signals agent registration to waiters.
	arrival chan struct{}
	// onStats receives unsolicited TypeStats heartbeats.
	onStats func(StatsReport)
	// onDump receives unsolicited TypeDumpDone notices.
	onDump func(DumpInfo)
	// onLive receives liveness transitions (agent marked dead or back
	// live); see EnableLiveness.
	onLive   func(agent string, live bool)
	liveStop chan struct{}

	wg sync.WaitGroup
}

// peer is the director's one record of an agent name. It outlives
// connections: the liveness verdict and the deploy lock survive a
// disconnect, so a reconnecting agent is recognized, and a deployment
// that spans the reconnect still owns the agent. Fields other than
// deploy are guarded by Director.mu.
type peer struct {
	conn      *agentConn // nil while the agent is disconnected
	lastHeard time.Time
	dead      bool // marked by the liveness checker, cleared by any message
	// deploy serializes deployments to the name, not to a connection.
	deploy sync.Mutex
}

type agentConn struct {
	conn    net.Conn
	sendMu  sync.Mutex // serializes writes
	pending chan Envelope
}

// send encodes one envelope to the agent under the write lock and a
// write deadline, so out-of-band messages (flight-dump requests,
// shutdown) interleave safely with an in-flight Deploy and a stalled
// peer fails the send instead of wedging the director.
func (ac *agentConn) send(env Envelope) error {
	b, err := encode(env)
	if err != nil {
		return err
	}
	ac.sendMu.Lock()
	defer ac.sendMu.Unlock()
	_ = ac.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	_, err = ac.conn.Write(b)
	return err
}

// New creates a director.
func New() *Director {
	return &Director{
		agents:   make(map[string]*peer),
		arrival:  make(chan struct{}, 16),
		liveStop: make(chan struct{}),
	}
}

// Listen starts accepting agents on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (d *Director) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("director: listen: %w", err)
	}
	d.ListenOn(ln)
	return ln.Addr().String(), nil
}

// ListenOn starts accepting agents on an already-bound listener — the
// seam the -chaos flag and the chaos soak use to interpose a
// faultnet-wrapped listener.
func (d *Director) ListenOn(ln net.Listener) {
	d.ln = ln
	d.wg.Add(1)
	go d.acceptLoop()
}

func (d *Director) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go d.serveConn(conn)
	}
}

// touch stamps the agent as heard-from; a message from a dead agent
// resurrects it (and fires the liveness transition hook).
func (d *Director) touch(name string, p *peer) {
	d.mu.Lock()
	p.lastHeard = time.Now()
	revived := p.dead
	p.dead = false
	cb := d.onLive
	d.mu.Unlock()
	if revived && cb != nil {
		cb(name, true)
	}
}

// serveConn reads the registration then pumps responses to waiters.
func (d *Director) serveConn(conn net.Conn) {
	defer d.wg.Done()
	mr := newMsgReader(conn)
	reg, err := mr.next()
	if err != nil || reg.Type != TypeRegister || reg.Agent == "" {
		_ = conn.Close()
		return
	}
	ac := &agentConn{conn: conn, pending: make(chan Envelope, 4)}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = conn.Close()
		return
	}
	p := d.agents[reg.Agent]
	if p == nil {
		p = &peer{}
		d.agents[reg.Agent] = p
	}
	if p.conn != nil {
		// A reconnect raced the old connection's teardown: the newest
		// registration wins, and closing the stale conn reaps its reader.
		_ = p.conn.conn.Close()
	}
	p.conn = ac
	d.mu.Unlock()
	d.touch(reg.Agent, p)
	select {
	case d.arrival <- struct{}{}:
	default:
	}

	for {
		env, err := mr.next()
		if err != nil {
			break
		}
		d.touch(reg.Agent, p)
		if env.Type == TypeStats {
			if env.Stats != nil {
				d.mu.Lock()
				handler := d.onStats
				d.mu.Unlock()
				if handler != nil {
					handler(*env.Stats)
				}
			}
			continue // heartbeats never wake a Deploy waiter
		}
		if env.Type == TypeDumpDone {
			if env.Dump != nil {
				d.mu.Lock()
				handler := d.onDump
				d.mu.Unlock()
				if handler != nil {
					handler(*env.Dump)
				}
			}
			continue // dump notices never wake a Deploy waiter either
		}
		select {
		case ac.pending <- env:
		default:
			// No waiter; drop.
		}
	}
	d.mu.Lock()
	// Guarded: a reconnect may already have replaced this connection,
	// and clearing blindly would orphan the live one.
	if p.conn == ac {
		p.conn = nil
	}
	d.mu.Unlock()
	// Closing pending tells a blocked Deploy immediately that this
	// connection is gone (serveConn is its only sender).
	close(ac.pending)
	_ = conn.Close()
}

// SetStatsHandler registers fn to receive every TypeStats heartbeat
// from every agent. fn runs on the per-connection reader goroutine, so
// it must return promptly; nil detaches.
func (d *Director) SetStatsHandler(fn func(StatsReport)) {
	d.mu.Lock()
	d.onStats = fn
	d.mu.Unlock()
}

// SetDumpHandler registers fn to receive every TypeDumpDone notice —
// the acknowledgment (path, event count, or error) of a flight dump
// requested with RequestFlightDump. Same contract as SetStatsHandler.
func (d *Director) SetDumpHandler(fn func(DumpInfo)) {
	d.mu.Lock()
	d.onDump = fn
	d.mu.Unlock()
}

// SetLivenessHandler registers fn to receive liveness transitions:
// fn(agent, false) when the checker marks an agent dead, fn(agent,
// true) when a message from it (reconnect, heartbeat) resurrects it.
// Same promptness contract as SetStatsHandler; nil detaches.
func (d *Director) SetLivenessHandler(fn func(agent string, live bool)) {
	d.mu.Lock()
	d.onLive = fn
	d.mu.Unlock()
}

// EnableLiveness starts the heartbeat liveness checker: an agent not
// heard from for missed consecutive windows of the given length is
// marked dead (surfaced via the liveness handler, which Monitor.SetLive
// turns into the live table's live column). Any subsequent message
// re-marks it live. The window should match the
// wall-clock cadence of the deployment's StatsEvery heartbeats. Call
// before deploying; the checker stops when the director closes.
func (d *Director) EnableLiveness(window time.Duration, missed int) error {
	if window <= 0 || missed <= 0 {
		return fmt.Errorf("director: liveness needs positive window and missed count")
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		ticker := time.NewTicker(window)
		defer ticker.Stop()
		for {
			select {
			case <-d.liveStop:
				return
			case now := <-ticker.C:
				var died []string
				d.mu.Lock()
				for name, p := range d.agents {
					if !p.dead && now.Sub(p.lastHeard) >= time.Duration(missed)*window {
						p.dead = true
						died = append(died, name)
					}
				}
				cb := d.onLive
				d.mu.Unlock()
				if cb != nil {
					sort.Strings(died)
					for _, name := range died {
						cb(name, false)
					}
				}
			}
		}
	}()
	return nil
}

// RequestFlightDump asks the named agent to dump its flight-recorder
// ring. The request is out-of-band: it is safe (and intended) while a
// deployment is running on that agent — the agent honors it at its
// next window boundary and answers with a TypeDumpDone notice routed
// to the SetDumpHandler callback. A registered agent whose connection
// is down gets an error saying so, not ErrUnknownAgent.
func (d *Director) RequestFlightDump(agent string) error {
	ac, p := d.lookup(agent)
	if p == nil {
		return &AgentError{Agent: agent, Err: ErrUnknownAgent}
	}
	if ac == nil {
		return &AgentError{Agent: agent, Err: errors.New("dump request: not connected")}
	}
	if err := ac.send(Envelope{Type: TypeDump, Agent: agent}); err != nil {
		return &AgentError{Agent: agent, Err: fmt.Errorf("dump request: %w", err)}
	}
	return nil
}

// Agents returns the names of currently connected agents, sorted.
func (d *Director) Agents() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.agents))
	for n, p := range d.agents {
		if p.conn != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// WaitAgents blocks until at least n agents are registered or the
// timeout elapses.
func (d *Director) WaitAgents(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if have := len(d.Agents()); have >= n {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("director: only %d of %d agents after %v", len(d.Agents()), n, timeout)
		}
		if remain > 20*time.Millisecond {
			remain = 20 * time.Millisecond
		}
		select {
		case <-d.arrival:
		case <-time.After(remain):
		}
	}
}

// lookup returns the agent's current connection, nil if disconnected,
// and its record, nil if the name never registered.
func (d *Director) lookup(agent string) (*agentConn, *peer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.agents[agent]
	if p == nil {
		return nil, nil
	}
	return p.conn, p
}

// Deploy sends spec to the named agent, blocks for its result, and
// returns it. One deployment runs at a time per agent. On timeout the
// deploy is resent up to Retries times (the agent deduplicates on the
// sequence ID), all within the given overall deadline.
func (d *Director) Deploy(agent string, depl DeploySpec, timeout time.Duration) (Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.DeployContext(ctx, agent, depl)
}

// DeployContext is Deploy under a caller-supplied context: the
// deadline (or cancellation) bounds the whole deployment including
// every retry, which is how DeployAll keeps one wedged agent from
// extending wall-clock past its shared timeout.
func (d *Director) DeployContext(ctx context.Context, agent string, depl DeploySpec) (Result, error) {
	if err := depl.Validate(); err != nil {
		return Result{}, err
	}
	_, p := d.lookup(agent)
	if p == nil {
		return Result{}, &AgentError{Agent: agent, Err: ErrUnknownAgent}
	}
	p.deploy.Lock()
	defer p.deploy.Unlock()

	d.mu.Lock()
	d.seq++
	seq := d.seq
	d.mu.Unlock()
	env := Envelope{Type: TypeDeploy, Seq: seq, Deploy: &depl}

	attempts := d.Retries + 1
	fail := func(err error) (Result, error) {
		return Result{}, &AgentError{Agent: agent, Err: err}
	}
	var lastErr error = ErrDeployTimeout
	for attempt := 1; attempt <= attempts; attempt++ {
		// Re-resolve the connection each attempt: the agent may have
		// reconnected since the last one.
		ac, _ := d.lookup(agent)
		if ac == nil {
			// Disconnected — wait briefly for a reconnect, charging the
			// shared deadline, then burn this attempt.
			select {
			case <-ctx.Done():
				return fail(fmt.Errorf("%w: agent disconnected (%v)", ErrDeployTimeout, ctx.Err()))
			case <-time.After(20 * time.Millisecond):
			}
			attempt-- // reconnect waits are not send attempts
			continue
		}
		if err := ac.send(env); err != nil {
			lastErr = fmt.Errorf("sending deploy: %w", err)
			continue
		}
		res, err := d.awaitReply(ctx, ac, agent, seq, attempt, attempts)
		if err == nil {
			return res, nil
		}
		var ae *AgentError
		if errors.As(err, &ae) {
			// Terminal: the agent answered (result/error/garbage) or the
			// overall deadline died. Retrying cannot change the outcome.
			return Result{}, err
		}
		lastErr = err
	}
	return fail(lastErr)
}

// awaitReply waits for the reply to seq on one connection. A returned
// *AgentError (or a result) is terminal; any other error — attempt
// timeout, connection loss — is retryable and the caller may resend.
func (d *Director) awaitReply(ctx context.Context, ac *agentConn, agent string, seq, attempt, attempts int) (Result, error) {
	// Split the remaining deadline evenly across the remaining
	// attempts so retries actually happen before the context dies.
	per := time.Duration(1<<62 - 1)
	if deadline, ok := ctx.Deadline(); ok {
		per = time.Until(deadline) / time.Duration(attempts-attempt+1)
		if per <= 0 {
			per = time.Millisecond
		}
	}
	timer := time.NewTimer(per)
	defer timer.Stop()
	for {
		select {
		case env, ok := <-ac.pending:
			if !ok {
				// Connection died; retry on the reconnected agent.
				return Result{}, fmt.Errorf("connection lost: %w", ErrDeployTimeout)
			}
			if env.Seq != seq {
				continue // stale response from an abandoned request
			}
			switch env.Type {
			case TypeResult:
				if env.Result == nil {
					return Result{}, &AgentError{Agent: agent, Err: errors.New("empty result")}
				}
				return *env.Result, nil
			case TypeError:
				return Result{}, &AgentError{Agent: agent, Err: errors.New(env.Error)}
			default:
				return Result{}, &AgentError{Agent: agent, Err: fmt.Errorf("unexpected reply %q", env.Type)}
			}
		case <-timer.C:
			return Result{}, ErrDeployTimeout
		case <-ctx.Done():
			return Result{}, &AgentError{Agent: agent, Err: fmt.Errorf("%w: %v", ErrDeployTimeout, ctx.Err())}
		}
	}
}

// DeployAll deploys the same spec to every connected agent in parallel
// (the multi-core scaling experiments) under one shared deadline, and
// returns the successful agents' results in name order. When some
// agents fail, their results are simply absent and the error is a
// *DeployAllError attributing each failure — one wedged or dead agent
// degrades the run instead of aborting it, and cannot extend
// wall-clock past timeout.
func (d *Director) DeployAll(depl DeploySpec, timeout time.Duration) ([]Result, error) {
	agents := d.Agents()
	if len(agents) == 0 {
		return nil, fmt.Errorf("director: no agents registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	results := make([]Result, len(agents))
	errs := make([]error, len(agents))
	var wg sync.WaitGroup
	for i, name := range agents {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			results[i], errs[i] = d.DeployContext(ctx, name, depl)
		}(i, name)
	}
	wg.Wait()

	ok := results[:0]
	perAgent := make(map[string]error)
	for i, err := range errs {
		if err != nil {
			perAgent[agents[i]] = err
			continue
		}
		ok = append(ok, results[i])
	}
	if len(perAgent) > 0 {
		return ok, &DeployAllError{Errors: perAgent}
	}
	return ok, nil
}

// Close shuts agents down and stops the listener.
func (d *Director) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	var conns []*agentConn
	for _, p := range d.agents {
		if p.conn != nil {
			conns = append(conns, p.conn)
		}
	}
	d.mu.Unlock()
	close(d.liveStop)
	for _, ac := range conns {
		// Best effort shutdown notice; connection close follows.
		_ = ac.send(Envelope{Type: TypeShutdown})
		_ = ac.conn.Close()
	}
	var err error
	if d.ln != nil {
		err = d.ln.Close()
	}
	d.wg.Wait()
	return err
}
