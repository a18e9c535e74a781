// Package nat implements the stateful Network Address Translator of
// the paper's evaluation (Figure 11): a five-tuple cuckoo classifier
// followed by a flow-mapper data action that rewrites the source
// address/port from per-flow state, per the paper's Listing 2/4.
//
// The NAT is representative of the "small per-flow state" NF class (LB,
// NM, FW behave alike): one cache line of state, two or three memory
// touches per packet, every one of them a likely miss under high flow
// concurrency — the regime where the interleaved execution model pays.
package nat

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// Config parametrizes a NAT instance.
type Config struct {
	// Name prefixes the NAT's module names (default "nat").
	Name string
	// MaxFlows sizes the per-flow pool and match table.
	MaxFlows int
	// NATIP is the translated source address.
	NATIP uint32
	// PortBase is the first translated source port; flow i maps to
	// PortBase+i (mod the port space above PortBase).
	PortBase uint16
	// States optionally overrides the per-flow state objects — used by
	// the compiler's data-packing pass to place this NAT's record
	// inside a fused SFC pool.
	States *nf.States
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "nat"
	}
	if c.MaxFlows <= 0 {
		return fmt.Errorf("nat: MaxFlows must be positive, got %d", c.MaxFlows)
	}
	if c.NATIP == 0 {
		c.NATIP = 0xc6336401 // 198.51.100.1 (TEST-NET-2)
	}
	if c.PortBase == 0 {
		c.PortBase = 1024
	}
	return nil
}

// Flow is the NAT's per-flow record. Field order mirrors the natural
// (unpacked) C-struct declaration; the simulated layout built in New
// matches it field for field.
type Flow struct {
	// OrigIP/OrigPort record the pre-translation source (cold).
	OrigIP   uint32
	OrigPort uint16
	// Proto is the flow's protocol (cold).
	Proto uint8
	// MappedIP/MappedPort are the translation target (hot, read).
	MappedIP   uint32
	MappedPort uint16
	// Pkts/Bytes/LastSeen are accounting (hot, written).
	Pkts, Bytes, LastSeen uint64
}

// FlowFields returns the simulated per-flow layout in natural
// (declaration) order.
func FlowFields() []mem.Field {
	return []mem.Field{
		{Name: "orig_ip", Size: 4},
		{Name: "orig_port", Size: 2},
		{Name: "proto", Size: 1},
		{Name: "created", Size: 8},
		{Name: "mapped_ip", Size: 4},
		{Name: "mapped_port", Size: 2},
		{Name: "idle_timeout", Size: 4},
		{Name: "pkts", Size: 8},
		{Name: "bytes", Size: 8},
		{Name: "last_seen", Size: 8},
	}
}

// HotFields returns the fields the per-packet data path accesses — the
// co-access group the data-packing optimizer clusters.
func HotFields() []string {
	return []string{"mapped_ip", "mapped_port", "pkts", "bytes", "last_seen"}
}

// NAT is one translator instance.
type NAT struct {
	cfg    Config
	states *nf.States
	table  *dstruct.Cuckoo
	flows  []Flow
	next   int32
}

// New builds a NAT drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*NAT, error) {
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
	return &NAT{
		cfg:    cfg,
		states: states,
		table:  table,
		flows:  make([]Flow, cfg.MaxFlows),
	}, nil
}

// Name returns the instance name.
func (n *NAT) Name() string { return n.cfg.Name }

// States exposes the per-flow state objects (for data packing).
func (n *NAT) States() *nf.States { return n.states }

// Flow returns a copy of flow idx's record.
func (n *NAT) Flow(idx int32) (Flow, error) {
	if idx < 0 || int(idx) >= len(n.flows) {
		return Flow{}, fmt.Errorf("nat: flow %d out of range", idx)
	}
	return n.flows[idx], nil
}

// AddFlow pre-populates flow idx for tuple, assigning its translation.
func (n *NAT) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if idx < 0 || int(idx) >= len(n.flows) {
		return fmt.Errorf("nat: flow index %d out of range [0,%d)", idx, len(n.flows))
	}
	if err := n.table.Insert(tuple.Hash(), idx); err != nil {
		return fmt.Errorf("nat: %w", err)
	}
	n.flows[idx] = Flow{
		OrigIP:     tuple.SrcIP,
		OrigPort:   tuple.SrcPort,
		Proto:      tuple.Proto,
		MappedIP:   n.cfg.NATIP,
		MappedPort: n.mappedPort(idx),
	}
	if idx >= n.next {
		n.next = idx + 1
	}
	return nil
}

// Translate returns tuple as this NAT emits it for flow idx: source
// address and port rewritten to the NAT mapping.
func (n *NAT) Translate(tuple pkt.FiveTuple, idx int32) pkt.FiveTuple {
	tuple.SrcIP = n.cfg.NATIP
	tuple.SrcPort = n.mappedPort(idx)
	return tuple
}

func (n *NAT) mappedPort(idx int32) uint16 {
	space := int32(65536) - int32(n.cfg.PortBase)
	return n.cfg.PortBase + uint16(idx%space)
}

// Attach registers the NAT's classifier and mapper modules on b; the
// packet leaves toward next (another NF's entry or model.EndName). It
// returns the NAT's entry state name.
func (n *NAT) Attach(b *model.Builder, next string) string {
	cls := nf.Classifier{Table: n.table, Module: n.cfg.Name + "_cls"}
	dataEntry := n.AttachData(b, next)
	allocState := n.attachAlloc(b, dataEntry)
	return cls.Attach(b, dataEntry, allocState)
}

// AttachData registers only the flow-mapper data module — the form used
// after redundant-matching removal, when an upstream classifier already
// set the task's FlowIdx. It returns the data module's entry state.
func (n *NAT) AttachData(b *model.Builder, next string) string {
	m := n.cfg.Name + "_mapper"
	evFwd := b.Event(nf.EvForward)
	flows := n.flows

	b.AddModule(m, n.states.Binding(), model.Layouts{model.KindPerFlow: n.states.Layout})
	b.AddState(m, "rewrite", model.Action{
		Name: "rewrite",
		Kind: model.ActionData,
		Cost: 55, // header rewrite + checksum fold
		Reads: []model.FieldRef{
			model.Fields(model.KindPerFlow, "mapped_ip", "mapped_port"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "pkts", "bytes", "last_seen"),
			nf.PacketHeaderSpan(),
		},
		Fn: func(e *model.Exec) model.EventID {
			f := &flows[e.FlowIdx]
			// Rewrite errors are impossible for generator frames; a
			// failure here is a harness bug, surfaced via counters.
			_ = e.Pkt.RewriteNAT(f.MappedIP, f.MappedPort)
			f.Pkts++
			f.Bytes += uint64(e.Pkt.WireLen)
			f.LastSeen = e.Core.Now()
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&flows[e.FlowIdx]) },
	})
	b.AddTransition(m+".rewrite", nf.EvForward, next)
	return m + ".rewrite"
}

// attachAlloc registers the miss path: a config action that allocates a
// new mapping in the data plane (first packet of an unknown flow) and
// falls through to the rewrite.
func (n *NAT) attachAlloc(b *model.Builder, dataEntry string) string {
	m := n.cfg.Name + "_alloc"
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)

	// The miss path is two control states so the Granular Decomposition
	// Property holds: "alloc" decides (and may drop) without touching
	// per-flow state; "init" has the per-flow writes declared and only
	// runs once a flow index exists.
	b.AddModule(m, n.states.Binding(), model.Layouts{model.KindPerFlow: n.states.Layout})
	b.AddState(m, "alloc", model.Action{
		Name: "alloc",
		Kind: model.ActionConfig,
		Cost: 220, // table insert + port allocation
		Fn: func(e *model.Exec) model.EventID {
			if int(n.next) >= len(n.flows) {
				return evDrop
			}
			idx := n.next
			if err := n.AddFlow(e.Pkt.Tuple, idx); err != nil {
				return evDrop
			}
			e.FlowIdx = idx
			return evFwd
		},
	})
	b.AddState(m, "init", model.Action{
		Name: "init",
		Kind: model.ActionConfig,
		Cost: 30,
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "orig_ip", "orig_port", "proto", "mapped_ip", "mapped_port"),
		},
		Fn: func(e *model.Exec) model.EventID { return evFwd },
	})
	b.AddTransition(m+".alloc", nf.EvForward, m+".init")
	b.AddTransition(m+".alloc", nf.EvDrop, model.EndName)
	b.AddTransition(m+".init", nf.EvForward, dataEntry)
	return m + ".alloc"
}

// Program builds the standalone NAT program.
func (n *NAT) Program() (*model.Program, error) {
	b := model.NewBuilder(n.cfg.Name)
	entry := n.Attach(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
