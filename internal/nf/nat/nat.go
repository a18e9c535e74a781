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
	// PortBase is the first translated source port. With S =
	// 65536-PortBase ports per address, flow i maps to port
	// PortBase + i%S on address NATIP + i/S, so no two flows share a
	// mapping.
	PortBase uint16
	// States optionally overrides the per-flow state binding — used by
	// the compiler's data-packing pass to place this NAT's record
	// inside a fused SFC pool.
	States *model.Binding
}

// Flow is the NAT's per-flow record: the accounting the rewrite action
// keeps. The translation target it reads follows from the flow index
// (mapping), so the record does not hold it; the simulated layout
// (FlowFields) is the full natural C-struct declaration, mapping and
// cold fields included.
type Flow struct {
	// Pkts/Bytes are accounting (hot, written).
	Pkts, Bytes uint64
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
	*nf.FlowTable[Flow]
	natIP    uint32
	portBase uint16
	// space is the number of ports per address, 65536-portBase.
	space int32
}

// New builds a NAT drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*NAT, error) {
	if cfg.Name == "" {
		cfg.Name = "nat"
	}
	if cfg.NATIP == 0 {
		cfg.NATIP = 0xc6336401 // 198.51.100.1 (TEST-NET-2)
	}
	if cfg.PortBase == 0 {
		cfg.PortBase = 1024
	}
	n := &NAT{natIP: cfg.NATIP, portBase: cfg.PortBase, space: 65536 - int32(cfg.PortBase)}
	var err error
	n.FlowTable, err = nf.NewFlowTable(as, nf.FlowTableConfig[Flow]{
		Name: cfg.Name, MaxFlows: cfg.MaxFlows, States: cfg.States, Fields: FlowFields(),
		NewFlow:    func(pkt.FiveTuple, int32) Flow { return Flow{} },
		Data:       n.AttachData,
		MissModule: "_alloc",
		Alloc:      model.Action{Name: "alloc", Cost: 220}, // table insert + port allocation
		Install: model.Action{Name: "init", Cost: 30, Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "orig_ip", "orig_port", "proto", "mapped_ip", "mapped_port"),
		}},
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Translate returns tuple as this NAT emits it for flow idx: source
// address and port rewritten to the NAT mapping.
func (n *NAT) Translate(tuple pkt.FiveTuple, idx int32) pkt.FiveTuple {
	tuple.SrcIP, tuple.SrcPort = n.mapping(idx)
	return tuple
}

// mapping is flow idx's translated (address, port): the ports from
// PortBase up on NATIP, then the same ports on each next address. Flows
// on NATIP, the common case, skip the divide.
func (n *NAT) mapping(idx int32) (uint32, uint16) {
	if idx < n.space {
		return n.natIP, n.portBase + uint16(idx)
	}
	return n.natIP + uint32(idx/n.space), n.portBase + uint16(idx%n.space)
}

// AttachData registers only the flow-mapper data module — the form used
// after redundant-matching removal, when an upstream classifier already
// set the task's FlowIdx. It returns the data module's entry state.
func (n *NAT) AttachData(b *model.Builder, next string) string {
	evFwd := b.Event(nf.EvForward)
	flows := n.Records()
	m := n.AddModule(b, "_mapper")
	b.AddState(m, "rewrite", model.Action{
		Name: "rewrite",
		Cost: 55, // header rewrite + checksum fold
		Reads: []model.FieldRef{
			model.Fields(model.BasePerFlow, "mapped_ip", "mapped_port"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "pkts", "bytes", "last_seen"),
			nf.PacketHeaderSpan(),
		},
		Fn: func(e *model.Exec) model.EventID {
			f := &flows[e.FlowIdx]
			// Rewrite errors are impossible for generator frames; a
			// failure here is a harness bug, surfaced via counters.
			_ = e.Pkt.RewriteNAT(n.mapping(e.FlowIdx))
			f.Pkts++
			f.Bytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: n.Touch(),
	})
	b.AddTransition(m+".rewrite", nf.EvForward, next)
	return m + ".rewrite"
}
