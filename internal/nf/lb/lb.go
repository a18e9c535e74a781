// Package lb implements the stateful Layer-4 load balancer of the
// paper's SFC experiments: a five-tuple classifier plus a per-flow
// backend binding (connection consistency à la Maglev), with backend
// selection for new flows hashed over a control-state backend table.
package lb

import (
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// Config parametrizes a load balancer instance.
type Config struct {
	// Name prefixes the LB's module names (default "lb").
	Name string
	// MaxFlows sizes the per-flow pool and match table.
	MaxFlows int
	// Backends is the virtual-IP backend pool size.
	Backends int
	// States optionally overrides the per-flow state binding — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *model.Binding
}

// Flow is the LB's per-flow record. The rewrite target follows from
// the backend index (backendIP, backendPort), so the record does not
// cache it; the simulated layout (FlowFields) does.
type Flow struct {
	// Backend is the bound backend index (hot, read).
	Backend int32
	// Pkts counts packets steered (hot, written).
	Pkts uint64
}

// backendPort is the port every backend serves on.
const backendPort = 8080

// backendIP is backend be's address in the 10.100.0.x pool.
func backendIP(be int32) uint32 { return 0x0a640000 + uint32(be) }

// FlowFields returns the simulated per-flow layout in natural order.
func FlowFields() []mem.Field {
	return []mem.Field{
		{Name: "backend", Size: 4},
		{Name: "created", Size: 8},
		{Name: "backend_ip", Size: 4},
		{Name: "backend_port", Size: 2},
		{Name: "vip", Size: 4},
		{Name: "pkts", Size: 8},
	}
}

// HotFields returns the per-packet co-access group for data packing.
func HotFields() []string {
	return []string{"backend_ip", "backend_port", "pkts"}
}

// LB is one load balancer instance.
type LB struct {
	*nf.FlowTable[Flow]
	backends int
}

// New builds an LB drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*LB, error) {
	if cfg.Name == "" {
		cfg.Name = "lb"
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 16
	}
	l := &LB{backends: cfg.Backends}
	var err error
	l.FlowTable, err = nf.NewFlowTable(as, nf.FlowTableConfig[Flow]{
		Name: cfg.Name, MaxFlows: cfg.MaxFlows, States: cfg.States, Fields: FlowFields(),
		NewFlow:    l.newFlow,
		Data:       l.AttachData,
		MissModule: "_alloc",
		// The consistent backend pick reads the backend table in
		// control state (one line).
		Alloc: model.Action{Name: "pick", Cost: 120, Reads: []model.FieldRef{
			model.Raw(model.BaseControl, 0, 64),
		}},
		Install: model.Action{Name: "bind", Cost: 25, Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "backend", "backend_ip", "backend_port", "vip"),
		}},
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// backendFor deterministically picks a backend for a tuple.
func (l *LB) backendFor(tuple pkt.FiveTuple) int32 {
	return int32(tuple.Hash() % uint64(l.backends))
}

// newFlow binds tuple to its backend.
func (l *LB) newFlow(tuple pkt.FiveTuple, _ int32) Flow {
	return Flow{Backend: l.backendFor(tuple)}
}

// Translate returns tuple as the LB emits it for flow idx: destination
// rewritten to the bound backend.
func (l *LB) Translate(tuple pkt.FiveTuple, idx int32) pkt.FiveTuple {
	if f, err := l.Flow(idx); err == nil {
		tuple.DstIP, tuple.DstPort = backendIP(f.Backend), backendPort
	}
	return tuple
}

// AttachData registers only the steering data action (post-MR form).
func (l *LB) AttachData(b *model.Builder, next string) string {
	evFwd := b.Event(nf.EvForward)
	flows := l.Records()
	m := l.AddModule(b, "_steer")
	b.AddState(m, "steer", model.Action{
		Name: "steer",
		Cost: 40,
		Reads: []model.FieldRef{
			model.Fields(model.BasePerFlow, "backend_ip", "backend_port"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "pkts"),
			nf.PacketHeaderSpan(),
		},
		Fn: func(e *model.Exec) model.EventID {
			f := &flows[e.FlowIdx]
			f.Pkts++
			// DNAT toward the bound backend (dst rewrite modelled via
			// the tuple; the charged spans cover the header bytes).
			e.Pkt.Tuple.DstIP, e.Pkt.Tuple.DstPort = backendIP(f.Backend), backendPort
			return evFwd
		},
		Touch: l.Touch(),
	})
	b.AddTransition(m+".steer", nf.EvForward, next)
	return m + ".steer"
}
