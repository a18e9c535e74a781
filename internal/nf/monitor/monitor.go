// Package monitor implements the network monitor (NM) of the paper's
// SFC experiments: per-flow traffic accounting plus aggregate counters
// in control state. It is write-heavy — every packet updates several
// per-flow counters — which exercises the write-allocate path of the
// cache model.
package monitor

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// Config parametrizes a monitor instance.
type Config struct {
	// Name prefixes the monitor's module names (default "nm").
	Name string
	// MaxFlows sizes the per-flow pool and match table.
	MaxFlows int
	// States optionally overrides the per-flow state objects — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *nf.States
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "nm"
	}
	if c.MaxFlows <= 0 {
		return fmt.Errorf("monitor: MaxFlows must be positive, got %d", c.MaxFlows)
	}
	return nil
}

// Flow is the monitor's per-flow record.
type Flow struct {
	// Pkts and Bytes are the per-flow totals (hot, written).
	Pkts, Bytes uint64
	// SmallPkts counts packets under 128B, a simple size histogram bin.
	SmallPkts uint64
	// LastSeen is the last update cycle (hot, written).
	LastSeen uint64
}

// FlowFields returns the simulated per-flow layout in natural order.
func FlowFields() []mem.Field {
	return []mem.Field{
		{Name: "pkts", Size: 8},
		{Name: "first_seen", Size: 8},
		{Name: "bytes", Size: 8},
		{Name: "flags_seen", Size: 1},
		{Name: "small_pkts", Size: 8},
		{Name: "last_seen", Size: 8},
	}
}

// HotFields returns the per-packet co-access group for data packing.
func HotFields() []string {
	return []string{"pkts", "bytes", "small_pkts", "last_seen"}
}

// Totals are the monitor's aggregate (control-state) counters.
type Totals struct {
	// Pkts and Bytes are the instance-wide totals.
	Pkts, Bytes uint64
}

// Monitor is one monitor instance.
type Monitor struct {
	cfg    Config
	states *nf.States
	table  *dstruct.Cuckoo
	flows  []Flow
	totals Totals
	next   int32
}

// New builds a monitor drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*Monitor, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	states := cfg.States
	if states == nil {
		var err error
		states, err = nf.BuildStates(as, cfg.Name, FlowFields(), cfg.MaxFlows)
		if err != nil {
			return nil, err
		}
	}
	table, err := dstruct.NewCuckoo(as, cfg.Name+".match", cfg.MaxFlows)
	if err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg, states: states, table: table, flows: make([]Flow, cfg.MaxFlows)}, nil
}

// Name returns the instance name.
func (m *Monitor) Name() string { return m.cfg.Name }

// States exposes the per-flow state objects (for data packing).
func (m *Monitor) States() *nf.States { return m.states }

// Totals returns the aggregate counters.
func (m *Monitor) Totals() Totals { return m.totals }

// Flow returns a copy of flow idx's record.
func (m *Monitor) Flow(idx int32) (Flow, error) {
	if idx < 0 || int(idx) >= len(m.flows) {
		return Flow{}, fmt.Errorf("monitor: flow %d out of range", idx)
	}
	return m.flows[idx], nil
}

// AddFlow pre-registers flow idx for tuple.
func (m *Monitor) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if idx < 0 || int(idx) >= len(m.flows) {
		return fmt.Errorf("monitor: flow index %d out of range [0,%d)", idx, len(m.flows))
	}
	if err := m.table.Insert(tuple.Hash(), idx); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	m.flows[idx] = Flow{}
	if idx >= m.next {
		m.next = idx + 1
	}
	return nil
}

// Translate returns tuple unchanged: the monitor does not rewrite.
func (m *Monitor) Translate(tuple pkt.FiveTuple, _ int32) pkt.FiveTuple { return tuple }

// Attach registers the monitor's modules on b, exiting toward next.
func (m *Monitor) Attach(b *model.Builder, next string) string {
	cls := nf.Classifier{Table: m.table, Module: m.cfg.Name + "_cls"}
	dataEntry := m.AttachData(b, next)
	allocEntry := m.attachAlloc(b, dataEntry)
	return cls.Attach(b, dataEntry, allocEntry)
}

// AttachData registers only the accounting action (post-MR form).
func (m *Monitor) AttachData(b *model.Builder, next string) string {
	mod := m.cfg.Name + "_acct"
	evFwd := b.Event(nf.EvForward)
	flows := m.flows

	b.AddModule(mod, m.states.Binding(), model.Layouts{model.KindPerFlow: m.states.Layout})
	b.AddState(mod, "update", model.Action{
		Name: "update",
		Kind: model.ActionData,
		Cost: 35,
		Reads: []model.FieldRef{
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "pkts", "bytes", "small_pkts", "last_seen"),
			// Aggregate counters live in control state.
			model.Raw(model.KindControl, model.BaseControl, 0, 16),
		},
		Fn: func(e *model.Exec) model.EventID {
			fl := &flows[e.FlowIdx]
			fl.Pkts++
			fl.Bytes += uint64(e.Pkt.WireLen)
			if e.Pkt.WireLen < 128 {
				fl.SmallPkts++
			}
			fl.LastSeen = e.Core.Now()
			m.totals.Pkts++
			m.totals.Bytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&flows[e.FlowIdx]) },
	})
	b.AddTransition(mod+".update", nf.EvForward, next)
	return mod + ".update"
}

// attachAlloc registers the unseen-flow path (first packet registers
// the flow, then falls through to accounting).
func (m *Monitor) attachAlloc(b *model.Builder, dataEntry string) string {
	mod := m.cfg.Name + "_alloc"
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)

	b.AddModule(mod, m.states.Binding(), model.Layouts{model.KindPerFlow: m.states.Layout})
	b.AddState(mod, "register", model.Action{
		Name: "register",
		Kind: model.ActionConfig,
		Cost: 160,
		Fn: func(e *model.Exec) model.EventID {
			if int(m.next) >= len(m.flows) {
				return evDrop
			}
			idx := m.next
			if err := m.AddFlow(e.Pkt.Tuple, idx); err != nil {
				return evDrop
			}
			e.FlowIdx = idx
			return evFwd
		},
	})
	b.AddState(mod, "init", model.Action{
		Name:   "init",
		Kind:   model.ActionConfig,
		Cost:   20,
		Writes: []model.FieldRef{model.Fields(model.KindPerFlow, "first_seen", "flags_seen")},
		Fn:     func(e *model.Exec) model.EventID { return evFwd },
	})
	b.AddTransition(mod+".register", nf.EvForward, mod+".init")
	b.AddTransition(mod+".register", nf.EvDrop, model.EndName)
	b.AddTransition(mod+".init", nf.EvForward, dataEntry)
	return mod + ".register"
}

// Program builds the standalone monitor program.
func (m *Monitor) Program() (*model.Program, error) {
	b := model.NewBuilder(m.cfg.Name)
	entry := m.Attach(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
