// Package traffic generates the workloads of the paper's evaluation:
// uniform and Zipf flow mixes for NAT/LB/FW/NM and the SFC experiments,
// the Telco-benchmark MGW use case (N PFCP sessions × M PDRs of
// downlink traffic) for the UPF, UE initial-registration call flows for
// the AMF, and a CAIDA-like heavy-tailed trace with an IMIX size mix.
//
// All generators are deterministic for a given seed, build real frame
// bytes (Ethernet/IPv4/UDP) that the NFs parse and rewrite, and recycle
// a fixed pool of packet structs so generation does not distort the Go
// heap while the simulator measures the data plane.
package traffic

import (
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/hostmem"
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
	// OrderUniform draws flows uniformly at random.
	OrderUniform FlowOrder = iota + 1
	// OrderZipf draws flows with a Zipf(1.1) popularity skew, the
	// heavy-tailed shape of real traffic.
	OrderZipf
	// OrderRoundRobin cycles the flows in order (worst case for
	// caching: maximal reuse distance).
	OrderRoundRobin
)

// FlowGenConfig parametrizes a synthetic flow workload.
type FlowGenConfig struct {
	// Flows is the concurrent flow population.
	Flows int
	// PacketBytes is the wire size of every packet.
	PacketBytes int
	// Order is the flow selection discipline.
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
// the runtimes' Source interface.
type FlowGen struct {
	cfg  FlowGenConfig
	rng  *rand.Rand
	zipf *rand.Zipf
	pool *pool
	rr   int
	// recs holds one record per flow: the tuple plus its lazily-encoded
	// header template. A zero first header byte marks a not-yet-built
	// template (real frames start with the destination MAC 02:...).
	// Templates make repeat packets of a flow a copy instead of a
	// re-encode, and packing template and tuple into one cache-line-
	// sized record makes emitting a packet touch one host line instead
	// of two parallel arrays.
	recs []flowRec
	// ahead is a FIFO ring of flow picks drawn but not yet emitted:
	// Next emits the oldest and draws one more, prefetching the drawn
	// flow's record on the host. Picks are the generator's only use of
	// rng and leave the ring in draw order, so the emitted sequence is
	// the one drawing each pick at emission would give.
	ahead [lookahead]int
	head  uint
}

// lookahead is how many packets ahead of emission FlowGen draws: the
// lead time that turns a large population's record miss (one 64-byte
// record per flow, far more than the host's caches hold) into a hit.
// A power of two, so the ring index is a mask.
const lookahead = 8

// flowRec is one flow's emission record: 42 template bytes + a 16-byte
// tuple at offset 44, padded to 64 bytes.
type flowRec struct {
	hdr   [hdrBytes]byte
	tuple pkt.FiveTuple
	_     [4]byte
}

// NewFlowGen builds a generator over cfg.Flows distinct five-tuples.
func NewFlowGen(cfg FlowGenConfig) (*FlowGen, error) {
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("traffic: Flows must be positive, got %d", cfg.Flows)
	}
	if cfg.PacketBytes < 64 {
		return nil, fmt.Errorf("traffic: PacketBytes must be >= 64, got %d", cfg.PacketBytes)
	}
	if cfg.Proto == 0 {
		cfg.Proto = pkt.ProtoUDP
	}
	if cfg.ShardCount == 0 {
		cfg.ShardBase, cfg.ShardCount = 0, cfg.Flows
	}
	if cfg.ShardBase < 0 || cfg.ShardBase+cfg.ShardCount > cfg.Flows {
		return nil, fmt.Errorf("traffic: shard [%d,%d) outside population %d",
			cfg.ShardBase, cfg.ShardBase+cfg.ShardCount, cfg.Flows)
	}
	g := &FlowGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		pool: newPool(),
		recs: make([]flowRec, cfg.Flows),
	}
	for i := range g.recs {
		g.recs[i].tuple = pkt.FiveTuple{
			SrcIP:   0x0a000000 + uint32(i/65000),
			DstIP:   0xc0a80000 + uint32(i%4096),
			SrcPort: uint16(1024 + i%64000),
			DstPort: 443,
			Proto:   cfg.Proto,
		}
		// Spread source addresses so tuples are distinct even when the
		// port cycles.
		g.recs[i].tuple.SrcIP += uint32(i%65000) << 8 & 0x00ffff00
	}
	if cfg.Order == OrderZipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(cfg.ShardCount-1))
	}
	for i := range g.ahead {
		g.ahead[i] = g.pick()
	}
	return g, nil
}

// FlowTuple returns flow i's five-tuple, for table pre-population.
func (g *FlowGen) FlowTuple(i int) pkt.FiveTuple { return g.recs[i].tuple }

// Flows returns the flow population size.
func (g *FlowGen) Flows() int { return len(g.recs) }

// pick selects the next flow index per the configured order, within
// the generator's shard.
func (g *FlowGen) pick() int {
	switch g.cfg.Order {
	case OrderZipf:
		return g.cfg.ShardBase + int(g.zipf.Uint64())
	case OrderRoundRobin:
		i := g.rr
		g.rr = (g.rr + 1) % g.cfg.ShardCount
		return g.cfg.ShardBase + i
	default:
		return g.cfg.ShardBase + g.rng.Intn(g.cfg.ShardCount)
	}
}

// hdrBytes is the encoded Ethernet/IPv4/L4 header length — the bytes
// buildUDPish actually writes.
const hdrBytes = pkt.EthLen + pkt.IPv4Len + pkt.UDPLen

// Next emits the next packet. FlowGen is an infinite source; callers
// bound runs by packet count.
//
// The frame header for a flow is fully determined by its tuple and the
// configured packet size, so it is encoded once per flow and copied
// from the template thereafter — byte-identical to re-encoding, at a
// fraction of the host cost.
func (g *FlowGen) Next() *pkt.Packet {
	slot := &g.ahead[g.head%lookahead]
	g.head++
	flow := *slot
	*slot = g.pick()
	hostmem.Prefetch(&g.recs[*slot])
	p := g.pool.take()
	r := &g.recs[flow]
	if r.hdr[0] == 0 {
		// First packet of this flow: encode for real, then capture.
		buildUDPish(p, r.tuple, g.cfg.PacketBytes)
		copy(r.hdr[:], p.Data)
		return p
	}
	copy(p.Data, r.hdr[:])
	p.WireLen = g.cfg.PacketBytes
	p.Tuple = r.tuple
	return p
}

// buildUDPish encodes an Ethernet/IPv4/L4 frame for tuple into p and
// sets the parsed fields directly (the generator knows them; NFs that
// re-parse get identical results, as the codec tests verify).
func buildUDPish(p *pkt.Packet, tuple pkt.FiveTuple, wire int) {
	b := p.Data[:bufBytes]
	// Encode errors are impossible here by construction (buffer is
	// fixed and large enough); they would indicate a programming error.
	_ = pkt.EncodeEthernet(b, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}, pkt.EtherTypeIPv4)
	_ = pkt.EncodeIPv4(b[pkt.EthLen:], pkt.IPv4Header{
		TotalLen: uint16(wire - pkt.EthLen),
		TTL:      64,
		Proto:    tuple.Proto,
		Src:      tuple.SrcIP,
		Dst:      tuple.DstIP,
	})
	_ = pkt.EncodeUDP(b[pkt.EthLen+pkt.IPv4Len:], tuple.SrcPort, tuple.DstPort,
		uint16(wire-pkt.EthLen-pkt.IPv4Len))
	p.WireLen = wire
	p.Tuple = tuple
}

// Limited wraps a source with a packet budget, turning an infinite
// generator into a finite trace.
type Limited struct {
	src  interface{ Next() *pkt.Packet }
	left uint64
}

// NewLimited returns a source that yields at most n packets from src.
func NewLimited(src interface{ Next() *pkt.Packet }, n uint64) *Limited {
	return &Limited{src: src, left: n}
}

// Next returns the next packet or nil once the budget is spent.
func (l *Limited) Next() *pkt.Packet {
	if l.left == 0 {
		return nil
	}
	l.left--
	return l.src.Next()
}
