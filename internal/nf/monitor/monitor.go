// Package monitor implements the network monitor (NM) of the paper's
// SFC experiments: per-flow traffic accounting plus aggregate counters
// in control state. It is write-heavy — every packet updates several
// per-flow counters — which exercises the write-allocate path of the
// cache model.
package monitor

import (
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
	// States optionally overrides the per-flow state binding — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *model.Binding
}

// Flow is the monitor's per-flow record.
type Flow struct {
	// Pkts and Bytes are the per-flow totals (hot, written).
	Pkts, Bytes uint64
	// SmallPkts counts packets under 128B, a simple size histogram bin.
	SmallPkts uint64
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
	*nf.FlowTable[Flow]
	totals Totals
}

// New builds a monitor drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*Monitor, error) {
	if cfg.Name == "" {
		cfg.Name = "nm"
	}
	m := &Monitor{}
	var err error
	m.FlowTable, err = nf.NewFlowTable(as, nf.FlowTableConfig[Flow]{
		Name: cfg.Name, MaxFlows: cfg.MaxFlows, States: cfg.States, Fields: FlowFields(),
		NewFlow:    func(pkt.FiveTuple, int32) Flow { return Flow{} },
		Data:       m.AttachData,
		MissModule: "_alloc",
		Alloc:      model.Action{Name: "register", Cost: 160},
		Install: model.Action{Name: "init", Cost: 20, Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "first_seen", "flags_seen"),
		}},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Totals returns the aggregate counters.
func (m *Monitor) Totals() Totals { return m.totals }

// Translate returns tuple unchanged: the monitor does not rewrite.
func (m *Monitor) Translate(tuple pkt.FiveTuple, _ int32) pkt.FiveTuple { return tuple }

// AttachData registers only the accounting action (post-MR form).
func (m *Monitor) AttachData(b *model.Builder, next string) string {
	evFwd := b.Event(nf.EvForward)
	flows := m.Records()
	mod := m.AddModule(b, "_acct")
	b.AddState(mod, "update", model.Action{
		Name: "update",
		Cost: 35,
		Reads: []model.FieldRef{
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "pkts", "bytes", "small_pkts", "last_seen"),
			// Aggregate counters live in control state.
			model.Raw(model.BaseControl, 0, 16),
		},
		Fn: func(e *model.Exec) model.EventID {
			fl := &flows[e.FlowIdx]
			fl.Pkts++
			fl.Bytes += uint64(e.Pkt.WireLen)
			if e.Pkt.WireLen < 128 {
				fl.SmallPkts++
			}
			m.totals.Pkts++
			m.totals.Bytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: m.Touch(),
	})
	b.AddTransition(mod+".update", nf.EvForward, next)
	return mod + ".update"
}
