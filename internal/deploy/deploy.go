// Package deploy builds what the runtime runs — a Spec's NF program and
// workload — for agents, the figure sweeps, gunfu-bench and the facade.
package deploy

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/fw"
	"github.com/gunfu-nfv/gunfu/internal/nf/lb"
	"github.com/gunfu-nfv/gunfu/internal/nf/monitor"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/nf/upf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Spec describes one NF deployment: which registered NF, on what workload.
type Spec struct {
	// NF names a factory in the agent's registry (e.g. "nat",
	// "upf-downlink", "sfc").
	NF string `json:"nf"`
	// Flows is the concurrent flow population.
	Flows int `json:"flows"`
	// Packets is the measurement window length.
	Packets uint64 `json:"packets"`
	// Warmup packets run before the measured window.
	Warmup uint64 `json:"warmup"`
	// PacketBytes is the workload packet size.
	PacketBytes int `json:"packet_bytes"`
	// Tasks is max_interleaved; 0 selects the RTC baseline.
	Tasks int `json:"tasks"`
	// Seed makes the workload deterministic.
	Seed int64 `json:"seed"`
	// SFCLength selects the chain length for the "sfc" NF.
	SFCLength int `json:"sfc_length,omitempty"`
	// PDRs selects rules per session for the "upf-downlink" NF.
	PDRs int `json:"pdrs,omitempty"`
	// StatsEvery, when positive, splits the measured window into chunks
	// of this many packets with a telemetry heartbeat after each.
	StatsEvery uint64 `json:"stats_every,omitempty"`
	// Latency, when true, attaches a latency probe so every heartbeat
	// carries the window's rx→done histogram (cycles) — the input to
	// p99 SLO evaluation and cluster-level quantile aggregation.
	Latency bool `json:"latency,omitempty"`
}

// Validate checks the spec's common fields.
func (d Spec) Validate() error {
	if d.NF == "" {
		return fmt.Errorf("deploy: NF name required")
	}
	if d.Flows <= 0 || d.Packets == 0 {
		return fmt.Errorf("deploy: Flows and Packets must be positive")
	}
	if d.PacketBytes < 64 {
		return fmt.Errorf("deploy: PacketBytes must be >= 64")
	}
	if d.Tasks < 0 {
		return fmt.Errorf("deploy: Tasks must be >= 0 (0 selects run-to-completion), got %d", d.Tasks)
	}
	return nil
}

// Factory builds a deployable NF: the compiled program and the
// workload source for one run, with state drawn from as.
type Factory func(as *mem.AddressSpace, d Spec) (*model.Program, rt.Source, error)

// Registry maps deployable NF names to factories.
type Registry map[string]Factory

// DefaultRegistry returns the built-in deployables: the NFs of the
// paper's evaluation, each pre-populated for the requested flow count.
func DefaultRegistry() Registry {
	return Registry{
		"nat":          natFactory,
		"upf-downlink": upfFactory,
		"sfc":          sfcFactory,
	}
}

// Build constructs deployment d on core through its factory: the
// program and its windowed Run under rt.ConfigFor(d.Tasks), so 0
// selects the run-to-completion baseline.
func (r Registry) Build(core *sim.Core, d Spec) (*model.Program, func(uint64) (rt.Result, error), error) {
	factory, ok := r[d.NF]
	if !ok {
		return nil, nil, fmt.Errorf("unknown NF %q", d.NF)
	}
	as := mem.NewAddressSpace()
	prog, src, err := factory(as, d)
	if err != nil {
		return nil, nil, err
	}
	w, err := rt.NewWorker(core, as, prog, rt.ConfigFor(d.Tasks))
	if err != nil {
		return nil, nil, err
	}
	return prog, func(n uint64) (rt.Result, error) { return w.Run(src, n) }, nil
}

func natFactory(as *mem.AddressSpace, d Spec) (*model.Program, rt.Source, error) {
	n, err := nat.New(as, nat.Config{MaxFlows: d.Flows})
	if err != nil {
		return nil, nil, err
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{
		Flows: d.Flows, PacketBytes: d.PacketBytes, Order: traffic.OrderUniform, Seed: d.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < d.Flows; i++ {
		if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			return nil, nil, err
		}
	}
	prog, err := n.Program()
	return prog, g, err
}

func upfFactory(as *mem.AddressSpace, d Spec) (*model.Program, rt.Source, error) {
	pdrs := d.PDRs
	if pdrs == 0 {
		pdrs = 16
	}
	return NewUPF(as, d.Flows, pdrs, d.PacketBytes, 0, 0, d.Seed)
}

func sfcFactory(as *mem.AddressSpace, d Spec) (*model.Program, rt.Source, error) {
	length := d.SFCLength
	if length == 0 {
		length = 4
	}
	return NewSFC(as, length, d.Flows, false, compile.SFCOptions{}, d.PacketBytes, 0, 0, d.Seed)
}

// NewSFC builds the paper's SFC of the given length as one deployable:
// the chain over flows flows (fused as NewChain describes), populated
// with its workload's flow tuples and compiled with opts, plus that
// workload. size is the packet size in bytes, 0 for the CAIDA IMIX
// trace; a non-zero shardCount restricts the workload to flows
// [shardBase, shardBase+shardCount) — RSS steering one core's share to
// it — while the chain still holds every flow.
func NewSFC(as *mem.AddressSpace, length, flows int, fused bool, opts compile.SFCOptions, size, shardBase, shardCount int, seed int64) (*model.Program, rt.Source, error) {
	var src rt.Source
	var tuple func(i int) pkt.FiveTuple
	if size == 0 {
		g, err := traffic.NewCaidaGen(traffic.CaidaConfig{
			Flows: flows, Seed: seed, ShardBase: shardBase, ShardCount: shardCount,
		})
		if err != nil {
			return nil, nil, err
		}
		src, tuple = g, g.FlowTuple
	} else {
		g, err := traffic.NewFlowGen(traffic.FlowGenConfig{
			Flows: flows, PacketBytes: size, Order: traffic.OrderUniform, Seed: seed,
			ShardBase: shardBase, ShardCount: shardCount,
		})
		if err != nil {
			return nil, nil, err
		}
		src, tuple = g, g.FlowTuple
	}
	chain, err := NewChain(as, length, flows, fused)
	if err != nil {
		return nil, nil, err
	}
	tuples := make([]pkt.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = tuple(i)
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		return nil, nil, err
	}
	prog, err := compile.BuildSFC("sfc", chain, opts)
	return prog, src, err
}

// NewUPF builds the UPF downlink over sessions PFCP sessions of pdrs
// PDRs each as one deployable, plus its MGW workload. As for NewSFC,
// size is the packet size in bytes, 0 for the CAIDA IMIX size mix, and
// a non-zero shardCount restricts the workload to sessions [shardBase,
// shardBase+shardCount) while the UPF still holds every session.
func NewUPF(as *mem.AddressSpace, sessions, pdrs, size, shardBase, shardCount int, seed int64) (*model.Program, rt.Source, error) {
	u, err := upf.New(as, upf.Config{Sessions: sessions, PDRsPerSession: pdrs})
	if err != nil {
		return nil, nil, err
	}
	prog, err := u.DownlinkProgram()
	if err != nil {
		return nil, nil, err
	}
	mgwCfg := traffic.MGWConfig{
		Sessions: sessions, PDRs: pdrs, PacketBytes: size, Seed: seed,
		ShardBase: shardBase, ShardCount: shardCount,
	}
	if size != 0 {
		g, err := traffic.NewMGWGen(mgwCfg)
		return prog, g, err
	}
	mgwCfg.PacketBytes = 64
	mgw, err := traffic.NewMGWGen(mgwCfg)
	if err != nil {
		return nil, nil, err
	}
	sizes, err := traffic.NewCaidaGen(traffic.CaidaConfig{Flows: 64, Seed: seed + 1})
	if err != nil {
		return nil, nil, err
	}
	return prog, &caidaMGW{mgw: mgw, sizes: sizes}, nil
}

// caidaMGW is the MGW workload with the CAIDA IMIX size mix: UE-
// addressed downlink traffic whose packet sizes follow the trace
// distribution.
type caidaMGW struct {
	mgw   *traffic.MGWGen
	sizes *traffic.CaidaGen
}

// Next emits an MGW packet with an IMIX wire length.
func (c *caidaMGW) Next() *pkt.Packet {
	p := c.mgw.Next()
	p.WireLen = c.sizes.Next().WireLen
	return p
}

// NewChain constructs the paper's SFC of the given length (2–6):
// LB → NAT → NM → FW, extended with additional firewalls carrying
// different policies for lengths above four, exactly as §VII-B
// describes. Each NF's per-flow record lives in its own pool or, fused,
// all in one co-access-packed pool (the DP-for-SFC optimization).
func NewChain(as *mem.AddressSpace, length, flows int, fused bool) ([]compile.Chainable, error) {
	if length < 2 || length > 6 {
		return nil, fmt.Errorf("deploy: SFC length %d outside [2,6]", length)
	}
	type member struct {
		compile.FuseMember
		build func(states *model.Binding) (compile.Chainable, error)
	}
	members := []member{
		{compile.FuseMember{Name: "lb", Fields: lb.FlowFields(), Hot: lb.HotFields()},
			func(st *model.Binding) (compile.Chainable, error) {
				return lb.New(as, lb.Config{MaxFlows: flows, States: st})
			}},
		{compile.FuseMember{Name: "nat", Fields: nat.FlowFields(), Hot: nat.HotFields()},
			func(st *model.Binding) (compile.Chainable, error) {
				return nat.New(as, nat.Config{MaxFlows: flows, States: st})
			}},
		{compile.FuseMember{Name: "nm", Fields: monitor.FlowFields(), Hot: monitor.HotFields()},
			func(st *model.Binding) (compile.Chainable, error) {
				return monitor.New(as, monitor.Config{MaxFlows: flows, States: st})
			}},
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("fw%d", i)
		policy := fw.DefaultPolicy(8 * (i + 1)) // different policies per FW
		members = append(members, member{
			compile.FuseMember{Name: name, Fields: fw.FlowFields(), Hot: fw.HotFields()},
			func(st *model.Binding) (compile.Chainable, error) {
				return fw.New(as, fw.Config{Name: name, MaxFlows: flows, Policy: policy, States: st})
			}})
	}
	members = members[:length]

	// Unfused, the map stays nil and every NF reserves its own pool.
	var states map[string]*model.Binding
	if fused {
		fuse := make([]compile.FuseMember, length)
		for i, m := range members {
			fuse[i] = m.FuseMember
		}
		var err error
		if states, err = compile.FuseStates(as, "sfc", fuse, flows); err != nil {
			return nil, err
		}
	}
	chain := make([]compile.Chainable, length)
	for i, m := range members {
		var err error
		if chain[i], err = m.build(states[m.Name]); err != nil {
			return nil, err
		}
	}
	return chain, nil
}
