// Package traffic generates the workloads of the paper's evaluation:
// uniform flow mixes for NAT/LB/FW/NM and the SFC experiments, the
// Telco-benchmark MGW use case (N PFCP sessions × M PDRs of downlink
// traffic) for the UPF, UE initial-registration call flows for the
// AMF, and a CAIDA-like heavy-tailed trace with an IMIX size mix.
// FlowGen also has a round-robin order, a fixed visit order the tests
// rely on.
//
// All generators are deterministic for a given seed, build real frame
// bytes (Ethernet/IPv4/UDP) that the NFs parse and rewrite, and recycle
// a fixed pool of packet structs so generation does not distort the Go
// heap while the simulator measures the data plane.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// bufBytes is the per-packet byte buffer: headers only, since payload
// content is never inspected. WireLen carries the true packet size.
const bufBytes = 128

// poolSize is the number of recycled packet structs. It must exceed the
// largest batch × interleaving depth a worker keeps alive at once.
const poolSize = 4096

// pool is the reusable packet backing store shared by the generators.
type pool struct {
	pkts []pkt.Packet
	bufs []byte
	next int
}

func newPool() *pool {
	p := &pool{
		pkts: make([]pkt.Packet, poolSize),
		bufs: make([]byte, poolSize*bufBytes),
	}
	for i := range p.pkts {
		p.pkts[i].Data = p.bufs[i*bufBytes : (i+1)*bufBytes]
	}
	return p
}

// take returns the next recycled packet with a clean parse state.
func (p *pool) take() *pkt.Packet {
	q := &p.pkts[p.next%poolSize]
	p.next++
	q.Reset()
	return q
}

// FlowOrder selects how a generator walks its flow population.
type FlowOrder int

// The flow orders.
const (
	// OrderUniform draws flows uniformly at random. The zero Order
	// means the same.
	OrderUniform FlowOrder = iota + 1
	// OrderRoundRobin cycles the flows in order (worst case for
	// caching: maximal reuse distance).
	OrderRoundRobin
)

// shard applies the generators' one shard rule to a population of n:
// a zero count selects the whole population, and a shard must lie
// inside it. The error starts with prefix and counts the population in
// units of noun.
func shard(base, count *int, n int, prefix, noun string) error {
	if *count == 0 {
		*base, *count = 0, n
	}
	if *base < 0 || *base+*count > n {
		return fmt.Errorf("%s: shard [%d,%d) outside %d %s", prefix, *base, *base+*count, n, noun)
	}
	return nil
}

// FlowGenConfig parametrizes a synthetic flow workload.
type FlowGenConfig struct {
	// Flows is the concurrent flow population.
	Flows int
	// PacketBytes is the wire size of every packet.
	PacketBytes int
	// Order is the flow selection discipline: 0, OrderUniform or
	// OrderRoundRobin. CaidaGen supplies heavy-tailed popularity.
	Order FlowOrder
	// Seed makes the generator deterministic.
	Seed int64
	// Proto selects TCP or UDP frames (default UDP).
	Proto uint8
	// ShardBase/ShardCount restrict emission to the flow index range
	// [ShardBase, ShardBase+ShardCount) — RSS steering: the table holds
	// all Flows, but this core only receives its shard. ShardCount = 0
	// means the whole population.
	ShardBase, ShardCount int
}

// FlowGen emits packets over a synthetic flow population. It implements
// the runtimes' Source interface. It keeps no per-flow bytes: a flow's
// tuple is arithmetic on its index, and every packet's header is
// written afresh.
type FlowGen struct {
	cfg  FlowGenConfig
	rng  *rand.Rand
	pool *pool
	rr   int
}

// NewFlowGen builds a generator over cfg.Flows distinct five-tuples.
func NewFlowGen(cfg FlowGenConfig) (*FlowGen, error) {
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("traffic: Flows must be positive, got %d", cfg.Flows)
	}
	if cfg.PacketBytes < 64 {
		return nil, fmt.Errorf("traffic: PacketBytes must be >= 64, got %d", cfg.PacketBytes)
	}
	if cfg.Order != 0 && cfg.Order != OrderUniform && cfg.Order != OrderRoundRobin {
		return nil, fmt.Errorf("traffic: unknown Order %d", cfg.Order)
	}
	if cfg.Proto == 0 {
		cfg.Proto = pkt.ProtoUDP
	}
	if err := shard(&cfg.ShardBase, &cfg.ShardCount, cfg.Flows, "traffic", "flows"); err != nil {
		return nil, err
	}
	return &FlowGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		pool: newPool(),
	}, nil
}

// FlowTuple returns flow i's five-tuple, for table pre-population. The
// source address spreads i over bits 8–23 so tuples stay distinct even
// when the source port cycles.
func (g *FlowGen) FlowTuple(i int) pkt.FiveTuple {
	return pkt.FiveTuple{
		SrcIP:   0x0a000000 + uint32(i/65000) + uint32(i%65000)<<8&0x00ffff00,
		DstIP:   0xc0a80000 + uint32(i%4096),
		SrcPort: uint16(1024 + i%64000),
		DstPort: 443,
		Proto:   g.cfg.Proto,
	}
}

// pick selects the next flow index per the configured order, within
// the generator's shard.
func (g *FlowGen) pick() int {
	if g.cfg.Order == OrderRoundRobin {
		i := g.rr
		g.rr = (g.rr + 1) % g.cfg.ShardCount
		return g.cfg.ShardBase + i
	}
	return g.cfg.ShardBase + g.rng.Intn(g.cfg.ShardCount)
}

// Next emits the next packet. FlowGen is an infinite source; callers
// bound runs by packet count.
func (g *FlowGen) Next() *pkt.Packet {
	tuple := g.FlowTuple(g.pick())
	p := g.pool.take()
	buildUDPish(p, tuple, g.cfg.PacketBytes)
	return p
}

// hdrBytes is the encoded Ethernet/IPv4/L4 header length — the bytes
// buildUDPish writes.
const hdrBytes = pkt.EthLen + pkt.IPv4Len + pkt.UDPLen

// hdrTemplate is the part of every generated header that no packet
// changes: destination and source MAC, EtherType IPv4, version/IHL 4/5,
// don't-fragment, TTL 64. buildUDPish patches the rest.
var hdrTemplate = [hdrBytes]byte{
	2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 0x08, 0x00, // Ethernet
	0x45, 0, 0, 0, 0, 0, 0x40, 0, 64, // IPv4 up to Proto
}

// hdrSum is the sum of the template's fixed IPv4 words: version/IHL/TOS,
// flags/fragment and the TTL half of TTL/Proto (identification is zero).
const hdrSum = 0x4500 + 0x4000 + 64<<8

// buildUDPish writes an Ethernet/IPv4/L4 header for tuple into p and
// sets the parsed fields directly (the generator knows them; NFs that
// re-parse get identical results). The bytes are those of
// pkt.EncodeEthernet, EncodeIPv4 and EncodeUDP, which the tests hold
// it to; the checksum is the template's constant sum plus the patched
// words, folded twice (the sum stays below 2^20, so two folds leave no
// carry).
func buildUDPish(p *pkt.Packet, tuple pkt.FiveTuple, wire int) {
	b := (*[hdrBytes]byte)(p.Data)
	*b = hdrTemplate
	ip, l4 := b[pkt.EthLen:], b[pkt.EthLen+pkt.IPv4Len:]
	total := uint16(wire - pkt.EthLen)
	binary.BigEndian.PutUint16(ip[2:4], total)
	ip[9] = tuple.Proto
	binary.BigEndian.PutUint32(ip[12:16], tuple.SrcIP)
	binary.BigEndian.PutUint32(ip[16:20], tuple.DstIP)
	sum := hdrSum + uint32(total) + uint32(tuple.Proto) +
		tuple.SrcIP>>16 + tuple.SrcIP&0xffff + tuple.DstIP>>16 + tuple.DstIP&0xffff
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(ip[10:12], ^uint16(sum))
	binary.BigEndian.PutUint16(l4[0:2], tuple.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], tuple.DstPort)
	binary.BigEndian.PutUint16(l4[4:6], total-pkt.IPv4Len)
	p.WireLen = wire
	// Field by field: tuple arrives as field-sized stores, and a
	// whole-struct copy reloads it with one 16-byte load that store
	// forwarding cannot serve (a sixth of FlowGen.Next's profile).
	t := &p.Tuple
	t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, t.Proto = tuple.SrcIP, tuple.DstIP, tuple.SrcPort, tuple.DstPort, tuple.Proto
}
