package traffic

import (
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// CaidaConfig parametrizes the CAIDA-like synthetic trace used by the
// scalability experiments (Figs 14, 15): a heavy-tailed flow popularity
// distribution and the IMIX packet-size mix of backbone traffic. The
// paper replays real CAIDA traces, which are licensed; this generator
// preserves the two properties the experiments exercise — flow
// concurrency (reuse distance of per-flow state) and the size mix
// (bytes per unit of per-packet work).
type CaidaConfig struct {
	// Flows is the concurrent flow population.
	Flows int
	// Seed makes the trace deterministic.
	Seed int64
	// ShardBase/ShardCount restrict emission to a flow index range
	// (RSS steering); ShardCount = 0 means all flows.
	ShardBase, ShardCount int
}

// IMIX sizes and cumulative weights: the classic 7:4:1 simple IMIX.
var (
	imixSizes = []int{64, 594, 1518}
	imixCum   = []float64{7.0 / 12, 11.0 / 12, 1.0}
)

// CaidaGen emits the synthetic backbone trace.
type CaidaGen struct {
	cfg  CaidaConfig
	rng  *rand.Rand
	zipf *rand.Zipf
	*pool
	tuples []pkt.FiveTuple
}

// NewCaidaGen validates cfg and builds the generator.
func NewCaidaGen(cfg CaidaConfig) (*CaidaGen, error) {
	if cfg.Flows <= 1 {
		return nil, fmt.Errorf("traffic: caida: Flows must be > 1, got %d", cfg.Flows)
	}
	if err := shard(&cfg.ShardBase, &cfg.ShardCount, cfg.Flows, "traffic: caida", "flows"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The popularity skew (s=1.05, v=8) matches backbone traces: a
	// heavy tail without a single flow dominating — at 100K+ flows the
	// per-flow reuse distance still defeats the caches, which is the
	// property the scalability experiments depend on.
	g := &CaidaGen{
		cfg:    cfg,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.05, 8, uint64(cfg.ShardCount-1)),
		pool:   newPool(),
		tuples: make([]pkt.FiveTuple, cfg.Flows),
	}
	for i := range g.tuples {
		g.tuples[i] = pkt.FiveTuple{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: uint16([]int{80, 443, 53, 8080, 22}[rng.Intn(5)]),
			Proto:   pkt.ProtoTCP,
		}
		if i%5 == 0 {
			g.tuples[i].Proto = pkt.ProtoUDP
		}
	}
	return g, nil
}

// FlowTuple returns flow i's five-tuple for table pre-population.
func (g *CaidaGen) FlowTuple(i int) pkt.FiveTuple { return g.tuples[i] }

// Next emits the next trace packet: Zipf-popular flow, IMIX size.
func (g *CaidaGen) Next() *pkt.Packet {
	flow, size := g.draw()
	p := g.pool.take()
	buildUDPish(p, g.tuples[flow], size)
	return p
}

// NextSize advances the trace by one packet and returns its IMIX wire
// size without building a frame: it consumes exactly Next's draws.
func (g *CaidaGen) NextSize() int {
	_, size := g.draw()
	return size
}

// draw picks the next packet's flow (Zipf) and then its IMIX size.
func (g *CaidaGen) draw() (flow, size int) {
	flow = g.cfg.ShardBase + int(g.zipf.Uint64())
	r := g.rng.Float64()
	for i, c := range imixCum {
		if r <= c {
			return flow, imixSizes[i]
		}
	}
	return flow, imixSizes[0]
}
