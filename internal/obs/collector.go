package obs

import (
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// csStats accumulates attribution for one control state (and therefore
// one NFAction binding: a CS executes exactly one action).
type csStats struct {
	execs     uint64
	cycles    uint64
	stall     uint64
	l1Miss    uint64
	llcMiss   uint64
	accesses  uint64
	pfIssued  uint64
	pfUseful  uint64
	pfLate    uint64
	pfDropped uint64
}

// stateStats accumulates attribution for one NFState span base kind.
type stateStats struct {
	accesses uint64
	stall    uint64
	l1Miss   uint64
	llcMiss  uint64
}

// Collector is a sim.Tracer that aggregates the event stream into
// per-NFAction and per-NFState attribution plus a per-packet latency
// histogram (each stream-done event's rx→done span). It is built
// entirely from events — it never queries the core — and renders
// stats.Table reports.
type Collector struct {
	prog   *model.Program
	freq   float64
	perCS  []csStats
	states [8]stateStats // indexed by model.BaseKind (1..6)
	causes [8]uint64     // stall cycles by sim.StallCause

	latency stats.Histogram
}

// NewCollector builds a collector for programs compiled like prog
// (the CS table supplies action names) on a core clocked at freqHz.
func NewCollector(prog *model.Program, freqHz float64) *Collector {
	return &Collector{prog: prog, freq: freqHz, perCS: make([]csStats, prog.NumCS())}
}

// TraceKinds implements sim.KindTracer: every kind but the four no
// report reads, rx, FSM transitions, redundant prefetches and task
// switches.
func (c *Collector) TraceKinds() sim.TraceKinds {
	return sim.AllTraceKinds &^ sim.KindSet(sim.TraceRx, sim.TraceTransition, sim.TracePrefetchRedundant, sim.TraceTaskSwitch)
}

// cs returns the per-CS accumulator for ev, or nil when the event is
// not attributed to a control state.
func (c *Collector) cs(ev *sim.TraceEvent) *csStats {
	if ev.CS < 0 || int(ev.CS) >= len(c.perCS) {
		return nil
	}
	return &c.perCS[ev.CS]
}

// Event implements sim.Tracer.
func (c *Collector) Event(ev sim.TraceEvent) { c.event(&ev) }

// EventBatch implements sim.BatchTracer.
func (c *Collector) EventBatch(evs []sim.TraceEvent) {
	for i := range evs {
		c.event(&evs[i])
	}
}

func (c *Collector) event(ev *sim.TraceEvent) {
	switch ev.Kind {
	case sim.TraceActionBegin:
		if s := c.cs(ev); s != nil {
			s.execs++
		}
	case sim.TraceActionEnd:
		if s := c.cs(ev); s != nil {
			s.cycles += ev.B
		}
	case sim.TraceAccess:
		l1, llc := ev.C>>32, ev.C&0xffffffff
		if s := c.cs(ev); s != nil {
			s.accesses++
			s.l1Miss += l1
			s.llcMiss += llc
		}
		if base := ev.A; base < uint64(len(c.states)) {
			st := &c.states[base]
			st.accesses++
			st.stall += ev.B
			st.l1Miss += l1
			st.llcMiss += llc
		}
	case sim.TraceStall:
		c.causes[ev.Cause] += ev.A
		if s := c.cs(ev); s != nil {
			s.stall += ev.A
			if ev.Cause == sim.CausePrefetchLate {
				s.pfLate++
			}
		}
	case sim.TracePrefetchIssued:
		if s := c.cs(ev); s != nil {
			s.pfIssued++
		}
	case sim.TracePrefetchUseful:
		if s := c.cs(ev); s != nil {
			s.pfUseful++
		}
	case sim.TracePrefetchDropped:
		if s := c.cs(ev); s != nil {
			s.pfDropped++
		}
	case sim.TraceStreamDone:
		c.latency.Add(ev.C)
	}
}

// usec converts cycles to microseconds at the collector's clock, or
// reads 0 without one.
func (c *Collector) usec(cycles float64) float64 {
	if c.freq == 0 {
		return 0
	}
	return cycles / c.freq * 1e6
}

// ActionTable renders per-NFAction attribution: executions, cycles,
// stall share, misses, and prefetch efficacy per control state, in CS
// order (deterministic).
func (c *Collector) ActionTable() *stats.Table {
	t := stats.NewTable(
		"Attribution — per NFAction (by control state)",
		"cs", "action", "execs", "cycles", "cyc/exec", "stall", "stall%",
		"l1miss", "llcmiss", "pf.iss", "pf.use", "pf.late", "pf.drop")
	for id := 1; id < len(c.perCS); id++ {
		s := &c.perCS[id]
		if s.execs == 0 && s.pfIssued == 0 {
			continue
		}
		name, action := "cs-"+stats.I(id), ""
		if info, err := c.prog.CS(model.CSID(id)); err == nil {
			name = info.Name
			if act, err := c.prog.Action(info.Action); err == nil {
				action = act.Name
			}
		}
		perExec := float64(0)
		stallPct := float64(0)
		if s.execs > 0 {
			perExec = float64(s.cycles) / float64(s.execs)
		}
		if s.cycles > 0 {
			stallPct = float64(s.stall) / float64(s.cycles)
		}
		t.AddRow(name, action, stats.U(s.execs), stats.U(s.cycles),
			stats.F(perExec, 1), stats.U(s.stall), stats.Pct(stallPct),
			stats.U(s.l1Miss), stats.U(s.llcMiss), stats.U(s.pfIssued),
			stats.U(s.pfUseful), stats.U(s.pfLate), stats.U(s.pfDropped))
	}
	return t
}

// StateTable renders per-NFState attribution keyed by span base kind:
// which class of state (per-flow, sub-flow, packet, control,
// match-structure) the stall cycles and misses came from.
func (c *Collector) StateTable() *stats.Table {
	t := stats.NewTable(
		"Attribution — per NFState (by span base)",
		"state", "accesses", "stall", "stall/access", "l1miss", "llcmiss")
	for base := 1; base < len(c.states); base++ {
		s := &c.states[base]
		if s.accesses == 0 {
			continue
		}
		t.AddRow(model.BaseKind(base).String(), stats.U(s.accesses),
			stats.U(s.stall), stats.F(float64(s.stall)/float64(s.accesses), 2),
			stats.U(s.l1Miss), stats.U(s.llcMiss))
	}
	return t
}

// LatencyTable renders the per-packet latency distribution with the
// tail quantiles (p50/p95/p99/p99.9) in cycles and microseconds.
func (c *Collector) LatencyTable() *stats.Table {
	lat := &c.latency
	t := stats.NewTable(
		"Per-packet latency (rx → stream done), "+stats.U(lat.Count())+" packets",
		"metric", "cycles", "usec")
	row := func(name string, v uint64) {
		t.AddRow(name, stats.U(v), stats.F(c.usec(float64(v)), 3))
	}
	row("min", lat.Min())
	t.AddRow("mean", stats.F(lat.Mean(), 1), stats.F(c.usec(lat.Mean()), 3))
	row("p50", lat.Quantile(0.50))
	row("p95", lat.Quantile(0.95))
	row("p99", lat.Quantile(0.99))
	row("p99.9", lat.Quantile(0.999))
	row("max", lat.Max())
	return t
}

// StallTable renders total stall cycles by cause.
func (c *Collector) StallTable() *stats.Table {
	t := stats.NewTable("Stall cycles by cause", "cause", "cycles", "share")
	var total uint64
	for _, v := range c.causes {
		total += v
	}
	for cause := 1; cause < len(c.causes); cause++ {
		v := c.causes[cause]
		if v == 0 {
			continue
		}
		share := float64(0)
		if total > 0 {
			share = float64(v) / float64(total)
		}
		t.AddRow(sim.StallCause(cause).String(), stats.U(v), stats.Pct(share))
	}
	return t
}

// Tables renders every attribution report.
func (c *Collector) Tables() []*stats.Table {
	return []*stats.Table{c.ActionTable(), c.StateTable(), c.StallTable(), c.LatencyTable()}
}
