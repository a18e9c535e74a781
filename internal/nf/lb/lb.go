// Package lb implements the stateful Layer-4 load balancer of the
// paper's SFC experiments: a five-tuple classifier plus a per-flow
// backend binding (connection consistency à la Maglev), with backend
// selection for new flows hashed over a control-state backend table.
package lb

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
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
	// States optionally overrides the per-flow state objects — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *nf.States
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "lb"
	}
	if c.MaxFlows <= 0 {
		return fmt.Errorf("lb: MaxFlows must be positive, got %d", c.MaxFlows)
	}
	if c.Backends <= 0 {
		c.Backends = 16
	}
	return nil
}

// Flow is the LB's per-flow record.
type Flow struct {
	// Backend is the bound backend index (hot, read).
	Backend int32
	// BackendIP/BackendPort cache the rewrite target (hot, read).
	BackendIP   uint32
	BackendPort uint16
	// Pkts counts packets steered (hot, written).
	Pkts uint64
}

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
	cfg    Config
	states *nf.States
	table  *dstruct.Cuckoo
	flows  []Flow
	next   int32
}

// New builds an LB drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*LB, error) {
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
	return &LB{cfg: cfg, states: states, table: table, flows: make([]Flow, cfg.MaxFlows)}, nil
}

// Name returns the instance name.
func (l *LB) Name() string { return l.cfg.Name }

// States exposes the per-flow state objects (for data packing).
func (l *LB) States() *nf.States { return l.states }

// Flow returns a copy of flow idx's record.
func (l *LB) Flow(idx int32) (Flow, error) {
	if idx < 0 || int(idx) >= len(l.flows) {
		return Flow{}, fmt.Errorf("lb: flow %d out of range", idx)
	}
	return l.flows[idx], nil
}

// backendFor deterministically picks a backend for a tuple.
func (l *LB) backendFor(tuple pkt.FiveTuple) int32 {
	return int32(tuple.Hash() % uint64(l.cfg.Backends))
}

// AddFlow pre-populates flow idx for tuple with its backend binding.
func (l *LB) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if idx < 0 || int(idx) >= len(l.flows) {
		return fmt.Errorf("lb: flow index %d out of range [0,%d)", idx, len(l.flows))
	}
	if err := l.table.Insert(tuple.Hash(), idx); err != nil {
		return fmt.Errorf("lb: %w", err)
	}
	be := l.backendFor(tuple)
	l.flows[idx] = Flow{
		Backend:     be,
		BackendIP:   0x0a640000 + uint32(be), // 10.100.0.x pool
		BackendPort: 8080,
	}
	if idx >= l.next {
		l.next = idx + 1
	}
	return nil
}

// Translate returns tuple as the LB emits it for flow idx: destination
// rewritten to the bound backend.
func (l *LB) Translate(tuple pkt.FiveTuple, idx int32) pkt.FiveTuple {
	if idx >= 0 && int(idx) < len(l.flows) {
		tuple.DstIP = l.flows[idx].BackendIP
		tuple.DstPort = l.flows[idx].BackendPort
	}
	return tuple
}

// Attach registers the LB's modules on b, exiting toward next.
func (l *LB) Attach(b *model.Builder, next string) string {
	cls := nf.Classifier{Table: l.table, Module: l.cfg.Name + "_cls"}
	dataEntry := l.AttachData(b, next)
	allocEntry := l.attachAlloc(b, dataEntry)
	return cls.Attach(b, dataEntry, allocEntry)
}

// AttachData registers only the steering data action (post-MR form).
func (l *LB) AttachData(b *model.Builder, next string) string {
	m := l.cfg.Name + "_steer"
	evFwd := b.Event(nf.EvForward)
	flows := l.flows

	b.AddModule(m, l.states.Binding(), model.Layouts{model.KindPerFlow: l.states.Layout})
	b.AddState(m, "steer", model.Action{
		Name: "steer",
		Kind: model.ActionData,
		Cost: 40,
		Reads: []model.FieldRef{
			model.Fields(model.KindPerFlow, "backend_ip", "backend_port"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "pkts"),
			nf.PacketHeaderSpan(),
		},
		Fn: func(e *model.Exec) model.EventID {
			f := &flows[e.FlowIdx]
			f.Pkts++
			// DNAT toward the bound backend (dst rewrite modelled via
			// the tuple; the charged spans cover the header bytes).
			e.Pkt.Tuple.DstIP = f.BackendIP
			e.Pkt.Tuple.DstPort = f.BackendPort
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&flows[e.FlowIdx]) },
	})
	b.AddTransition(m+".steer", nf.EvForward, next)
	return m + ".steer"
}

// attachAlloc registers the new-flow path: consistent backend pick then
// per-flow binding initialization.
func (l *LB) attachAlloc(b *model.Builder, dataEntry string) string {
	m := l.cfg.Name + "_alloc"
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)

	b.AddModule(m, l.states.Binding(), model.Layouts{model.KindPerFlow: l.states.Layout})
	b.AddState(m, "pick", model.Action{
		Name: "pick",
		Kind: model.ActionConfig,
		Cost: 120,
		// Reads the backend table in control state (one line).
		Reads: []model.FieldRef{model.Raw(model.KindControl, model.BaseControl, 0, 64)},
		Fn: func(e *model.Exec) model.EventID {
			if int(l.next) >= len(l.flows) {
				return evDrop
			}
			idx := l.next
			if err := l.AddFlow(e.Pkt.Tuple, idx); err != nil {
				return evDrop
			}
			e.FlowIdx = idx
			return evFwd
		},
	})
	b.AddState(m, "bind", model.Action{
		Name: "bind",
		Kind: model.ActionConfig,
		Cost: 25,
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "backend", "backend_ip", "backend_port", "vip"),
		},
		Fn: func(e *model.Exec) model.EventID { return evFwd },
	})
	b.AddTransition(m+".pick", nf.EvForward, m+".bind")
	b.AddTransition(m+".pick", nf.EvDrop, model.EndName)
	b.AddTransition(m+".bind", nf.EvForward, dataEntry)
	return m + ".pick"
}

// Program builds the standalone LB program.
func (l *LB) Program() (*model.Program, error) {
	b := model.NewBuilder(l.cfg.Name)
	entry := l.Attach(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
