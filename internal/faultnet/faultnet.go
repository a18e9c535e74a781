// Package faultnet wraps net.Conn and net.Listener with seeded,
// deterministic fault injection: connections that reset after a
// scripted number of bytes (mid-message, so peers see truncated
// frames), writes split into small chunks (so readers see partial
// frames), and latency inserted on a fixed cadence. It exists so the
// control plane's failure handling — reconnect, retry, liveness — can
// be exercised both in tests (the chaos soak in internal/director) and
// interactively (gunfu-director -chaos).
//
// Determinism contract: every fault is a pure function of (Config.Seed,
// connection wrap order, byte offsets within the connection). The
// injector draws one fault script per connection from a single seeded
// PRNG in Wrap order, and the script triggers on byte counts, never on
// wall-clock time. Two runs that wrap connections in the same order
// inject byte-identical faults; concurrent runs may interleave wrap
// order, which reorders scripts across connections but never invents
// new ones. Inserted latency is the only wall-clock effect, and it is
// bounded by Config.Latency per I/O operation.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error surfaced by a connection the injector has
// reset. Callers distinguish injected faults from organic network
// errors with errors.Is.
var ErrInjected = errors.New("faultnet: injected connection reset")

// Config parameterizes an Injector. The zero value injects nothing
// (every wrapper is then a transparent pass-through).
type Config struct {
	// Seed fixes the fault script sequence.
	Seed int64
	// CutProb is the probability (0..1) that a connection gets a kill
	// point: after CutAfter total bytes (reads plus writes) the
	// connection is closed mid-operation and both sides see a reset.
	CutProb float64
	// CutAfterMin and CutAfterMax bound the kill point in total bytes.
	// The cut lands at a uniform draw in [min, max]; a cut inside a
	// Write truncates the frame on the wire first.
	CutAfterMin, CutAfterMax int64
	// MaxWriteChunk, when positive, splits every Write into chunks of
	// at most this many bytes so peers observe partial frames. The full
	// buffer is still written (the io.Writer contract holds) unless a
	// kill point lands inside it.
	MaxWriteChunk int
	// Latency, when positive, is slept before every LatencyEvery'th
	// I/O operation on a connection.
	Latency time.Duration
	// LatencyEvery is the operation cadence for Latency (0 disables).
	LatencyEvery int
}

func (c Config) validate() error {
	if c.CutProb < 0 || c.CutProb > 1 {
		return fmt.Errorf("faultnet: CutProb %v outside [0,1]", c.CutProb)
	}
	if c.CutProb > 0 && (c.CutAfterMin <= 0 || c.CutAfterMax < c.CutAfterMin) {
		return fmt.Errorf("faultnet: cut range [%d,%d] invalid", c.CutAfterMin, c.CutAfterMax)
	}
	if c.Latency > 0 && c.LatencyEvery <= 0 {
		return fmt.Errorf("faultnet: Latency set but LatencyEvery is %d", c.LatencyEvery)
	}
	return nil
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	// Conns is the number of connections wrapped.
	Conns int64
	// Cuts is the number of connections reset by a kill point.
	Cuts int64
	// SplitWrites is the number of Writes delivered in >1 chunk.
	SplitWrites int64
	// DelayedOps is the number of I/O operations that slept.
	DelayedOps int64
}

// Injector hands out fault-wrapped connections. Safe for concurrent
// use; the per-connection script draw is serialized so wrap order
// fully determines the scripts.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	conns       atomic.Int64
	cuts        atomic.Int64
	splitWrites atomic.Int64
	delayedOps  atomic.Int64
}

// New builds an injector for the given config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Stats returns the fault counts so far.
func (i *Injector) Stats() Stats {
	return Stats{
		Conns:       i.conns.Load(),
		Cuts:        i.cuts.Load(),
		SplitWrites: i.splitWrites.Load(),
		DelayedOps:  i.delayedOps.Load(),
	}
}

// script is one connection's fault plan, drawn at wrap time.
type script struct {
	cutAfter     int64 // total bytes before the reset; -1 = never
	chunk        int
	latency      time.Duration
	latencyEvery int64
}

// Wrap returns conn with this injector's next fault script attached.
func (i *Injector) Wrap(conn net.Conn) net.Conn {
	i.mu.Lock()
	sc := script{cutAfter: -1, chunk: i.cfg.MaxWriteChunk, latency: i.cfg.Latency, latencyEvery: int64(i.cfg.LatencyEvery)}
	if i.cfg.CutProb > 0 && i.rng.Float64() < i.cfg.CutProb {
		sc.cutAfter = i.cfg.CutAfterMin + i.rng.Int63n(i.cfg.CutAfterMax-i.cfg.CutAfterMin+1)
	}
	i.mu.Unlock()
	i.conns.Add(1)
	return &Conn{Conn: conn, inj: i, sc: sc}
}

// WrapListener returns a listener whose accepted connections are
// wrapped in Accept order.
func (i *Injector) WrapListener(ln net.Listener) net.Listener {
	return &Listener{Listener: ln, inj: i}
}

// Listener wraps accepted connections with fault scripts.
type Listener struct {
	net.Listener
	inj *Injector
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Wrap(conn), nil
}

// Conn is a net.Conn with an attached fault script.
type Conn struct {
	net.Conn
	inj *Injector
	sc  script

	mu    sync.Mutex
	total int64 // bytes read + written
	ops   int64
	cut   bool
}

// maybeDelay sleeps on the script's latency cadence. Called with c.mu
// held only long enough to advance the op counter.
func (c *Conn) maybeDelay() {
	if c.sc.latencyEvery <= 0 {
		return
	}
	c.mu.Lock()
	c.ops++
	fire := c.ops%c.sc.latencyEvery == 0
	c.mu.Unlock()
	if fire {
		c.inj.delayedOps.Add(1)
		time.Sleep(c.sc.latency)
	}
}

// budget returns how many of n bytes may still pass before the kill
// point, and whether the connection is already cut.
func (c *Conn) budget(n int) (allowed int, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, true
	}
	if c.sc.cutAfter < 0 {
		return n, false
	}
	remain := c.sc.cutAfter - c.total
	if remain <= 0 {
		return 0, false
	}
	if int64(n) <= remain {
		return n, false
	}
	return int(remain), false
}

// account adds transferred bytes and reports whether the kill point
// has been reached.
func (c *Conn) account(n int) (killed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total += int64(n)
	if c.sc.cutAfter >= 0 && c.total >= c.sc.cutAfter && !c.cut {
		c.cut = true
		return true
	}
	return false
}

// kill closes the underlying connection and counts the cut.
func (c *Conn) kill() {
	c.inj.cuts.Add(1)
	_ = c.Conn.Close()
}

// Read reads from the wrapped connection, delivering the scripted
// reset once the connection's byte budget is spent.
func (c *Conn) Read(p []byte) (int, error) {
	c.maybeDelay()
	allowed, dead := c.budget(len(p))
	if dead {
		return 0, ErrInjected
	}
	if allowed == 0 && len(p) > 0 {
		// Budget already spent (cut landed exactly on a boundary).
		c.mu.Lock()
		c.cut = true
		c.mu.Unlock()
		c.kill()
		return 0, ErrInjected
	}
	n, err := c.Conn.Read(p[:allowed])
	if c.account(n) {
		c.kill()
		if n > 0 {
			return n, nil // deliver what crossed the line; next op errors
		}
		return 0, ErrInjected
	}
	return n, err
}

// Write writes through the wrapped connection in script-sized chunks,
// truncating mid-frame if the kill point lands inside the buffer.
func (c *Conn) Write(p []byte) (int, error) {
	c.maybeDelay()
	written := 0
	chunks := 0
	for written < len(p) {
		allowed, dead := c.budget(len(p) - written)
		if dead {
			return written, ErrInjected
		}
		if allowed == 0 {
			c.mu.Lock()
			c.cut = true
			c.mu.Unlock()
			c.kill()
			return written, ErrInjected
		}
		if c.sc.chunk > 0 && allowed > c.sc.chunk {
			allowed = c.sc.chunk
		}
		n, err := c.Conn.Write(p[written : written+allowed])
		written += n
		chunks++
		killed := c.account(n)
		if killed {
			c.kill()
			if chunks > 1 {
				c.inj.splitWrites.Add(1)
			}
			return written, ErrInjected
		}
		if err != nil {
			return written, err
		}
	}
	if chunks > 1 {
		c.inj.splitWrites.Add(1)
	}
	return written, nil
}

// Close closes the wrapped connection.
func (c *Conn) Close() error {
	return c.Conn.Close()
}
