package nf_test

// Every shipped NF sets model.Action.Touch on the actions whose Fn
// dereferences a large Go-side table. A Touch runs one scheduler lap
// before its Fn, so it must find the record from task state that is
// already final at P-stage time. This test wraps every action of every
// shipped program (and of the 6-NF MR chain) in a recorder and
// checks that the Fn following a Touch on the same task sees the very
// (CS, FlowIdx, SubIdx, Cur.Addr) the Touch saw; an index still at -1 or
// left over from the previous packet would also panic inside the real
// Touch's slice index.

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/amf"
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

// touchFlows is the population of every world below: several times the
// simulated L1, so P-stage visits keep issuing after the cold start.
const touchFlows = 4096

// taskView is what a Touch indexes with.
type taskView struct {
	cs           model.CSID
	flow, sub    int32
	cursor       uint64
	touchedState string
}

// touchRecorder wraps a program's actions and checks the contract.
type touchRecorder struct {
	t *testing.T
	// pending holds, per task, the view its last Touch saw until the
	// task's next Fn consumes it.
	pending map[*model.Exec]taskView
	// fired counts Touch calls per action name.
	fired map[string]int
}

func view(e *model.Exec, name string) taskView {
	return taskView{cs: e.CS, flow: e.FlowIdx, sub: e.SubIdx, cursor: e.Cur.Addr, touchedState: name}
}

// wrap installs the recorder on every action of prog and returns the
// names of the actions that carry a Touch.
func (r *touchRecorder) wrap(prog *model.Program) []string {
	var touching []string
	for id := 0; id < prog.NumActions(); id++ {
		act, err := prog.Action(model.ActionID(id))
		if err != nil {
			r.t.Fatal(err)
		}
		name, fn, touch := act.Name, act.Fn, act.Touch
		act.Fn = func(e *model.Exec) model.EventID {
			if saw, ok := r.pending[e]; ok {
				delete(r.pending, e)
				if now := view(e, saw.touchedState); now != saw {
					r.t.Errorf("action %s: its Touch saw %+v, its Fn sees %+v", name, saw, now)
				}
			}
			return fn(e)
		}
		if touch == nil {
			continue
		}
		touching = append(touching, name)
		act.Touch = func(e *model.Exec) {
			r.pending[e] = view(e, name)
			r.fired[name]++
			touch(e)
		}
	}
	prog.CompilePlans()
	return touching
}

// touchWorld is one program over populated state plus its traffic.
type touchWorld struct {
	name string
	as   *mem.AddressSpace
	prog *model.Program
	// src builds a fresh copy of the workload.
	src func(t *testing.T) rt.Source
	// state snapshots the NF's per-flow records and drop counters (the
	// equivalence test compares it across runtimes).
	state func() any
}

// records collects get(0..n-1): one NF's per-flow table by value.
func records[F any](t *testing.T, n int, get func(int32) (F, error)) []F {
	t.Helper()
	out := make([]F, n)
	for i := range out {
		var err error
		if out[i], err = get(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// natFlows and monitorFlows are records with LastSeen cleared: it holds
// the simulated clock, the one field a schedule is meant to change.
func natFlows(t *testing.T, n *nat.NAT) []nat.Flow {
	flows := records(t, touchFlows, n.Flow)
	for i := range flows {
		flows[i].LastSeen = 0
	}
	return flows
}

func monitorFlows(t *testing.T, m *monitor.Monitor) []monitor.Flow {
	flows := records(t, touchFlows, m.Flow)
	for i := range flows {
		flows[i].LastSeen = 0
	}
	return flows
}

// flowNF is what flowWorld needs of a five-tuple NF.
type flowNF struct {
	addFlow func(pkt.FiveTuple, int32) error
	program func() (*model.Program, error)
	state   func() any
}

// staggeredSource emits one packet of the fresh generator at the head of
// every rx burst and the established generator's otherwise.
type staggeredSource struct {
	established, fresh *traffic.FlowGen
	burst, n           int
}

func (s *staggeredSource) Next() *pkt.Packet {
	s.n++
	if s.n%s.burst == 1 {
		return s.fresh.Next()
	}
	return s.established.Next()
}

// flowWorld builds a five-tuple NF with the first installed flows of
// the population pre-installed and uniform traffic over them; every rx
// burst also carries one packet of a not-yet-installed flow, cycling
// through 64 of them, which takes the NF's first-packet path (it binds
// FlowIdx in a config action, not in the classifier) and is established
// by its next lap. One first packet per burst keeps the workload inside
// what per-flow equivalence promises: which index (or NAT port) a new
// flow draws depends on the order first packets reach the allocator,
// which a schedule may change across flows, and two in-flight first
// packets of one flow would both miss the classifier and both allocate.
func flowWorld(t *testing.T, name string, installed int, build func(as *mem.AddressSpace) (flowNF, error)) touchWorld {
	t.Helper()
	cfg := traffic.FlowGenConfig{Flows: touchFlows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3,
		ShardCount: installed}
	gen := func(t *testing.T, cfg traffic.FlowGenConfig) *traffic.FlowGen {
		g, err := traffic.NewFlowGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	src := func(t *testing.T) rt.Source {
		fresh := cfg
		fresh.Order, fresh.ShardBase, fresh.ShardCount = traffic.OrderRoundRobin, installed, 64
		return &staggeredSource{established: gen(t, cfg), fresh: gen(t, fresh), burst: rt.DefaultConfig().Batch}
	}
	g := gen(t, cfg)
	as := mem.NewAddressSpace()
	nf, err := build(as)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < installed; i++ {
		if err := nf.addFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := nf.program()
	if err != nil {
		t.Fatal(err)
	}
	return touchWorld{name: name, as: as, prog: prog, src: src, state: nf.state}
}

// teidSource turns generator frames into uplink GTP-U traffic spread
// over the UPF's sessions.
type teidSource struct {
	gen      *traffic.FlowGen
	sessions uint32
	n        uint32
}

func (s *teidSource) Next() *pkt.Packet {
	p := s.gen.Next()
	p.TEID = 0x10000 + (s.n*2654435761)%s.sessions
	s.n++
	return p
}

func touchWorlds(t *testing.T) []touchWorld {
	t.Helper()
	worlds := []touchWorld{
		flowWorld(t, "nat", touchFlows/2, func(as *mem.AddressSpace) (flowNF, error) {
			n, err := nat.New(as, nat.Config{MaxFlows: touchFlows})
			if err != nil {
				return flowNF{}, err
			}
			return flowNF{n.AddFlow, n.Program, func() any { return natFlows(t, n) }}, nil
		}),
		flowWorld(t, "lb", touchFlows/2, func(as *mem.AddressSpace) (flowNF, error) {
			l, err := lb.New(as, lb.Config{MaxFlows: touchFlows})
			if err != nil {
				return flowNF{}, err
			}
			return flowNF{l.AddFlow, l.Program, func() any { return records(t, touchFlows, l.Flow) }}, nil
		}),
		flowWorld(t, "fw", touchFlows/2, func(as *mem.AddressSpace) (flowNF, error) {
			f, err := fw.New(as, fw.Config{MaxFlows: touchFlows, Policy: fw.DefaultPolicy(24)})
			if err != nil {
				return flowNF{}, err
			}
			return flowNF{f.AddFlow, f.Program, func() any { return []any{records(t, touchFlows, f.Flow), f.Drops()} }}, nil
		}),
		flowWorld(t, "monitor", touchFlows/2, func(as *mem.AddressSpace) (flowNF, error) {
			m, err := monitor.New(as, monitor.Config{MaxFlows: touchFlows})
			if err != nil {
				return flowNF{}, err
			}
			return flowNF{m.AddFlow, m.Program, func() any { return []any{monitorFlows(t, m), m.Totals()} }}, nil
		}),
	}

	const sessions, pdrs = touchFlows / 4, 4
	upfWorld := func(name string, program func(*upf.UPF) (*model.Program, error), src func(t *testing.T) rt.Source) touchWorld {
		as := mem.NewAddressSpace()
		u, err := upf.New(as, upf.Config{Sessions: sessions, PDRsPerSession: pdrs, DropEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := program(u)
		if err != nil {
			t.Fatal(err)
		}
		return touchWorld{name: name, as: as, prog: prog, src: src, state: func() any {
			return []any{records(t, sessions, u.Session), records(t, sessions*pdrs, u.PDRRecord), u.Drops()}
		}}
	}
	worlds = append(worlds,
		upfWorld("upf-downlink", (*upf.UPF).DownlinkProgram, func(t *testing.T) rt.Source {
			g, err := traffic.NewMGWGen(traffic.MGWConfig{Sessions: sessions, PDRs: pdrs, PacketBytes: 128, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}),
		upfWorld("upf-uplink", (*upf.UPF).UplinkProgram, func(t *testing.T) rt.Source {
			g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 64, PacketBytes: 128, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return &teidSource{gen: g, sessions: sessions}
		}),
	)

	as := mem.NewAddressSpace()
	a, err := amf.New(as, amf.Config{MaxUEs: touchFlows})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, touchWorld{name: "amf", as: as, prog: prog, src: func(t *testing.T) rt.Source {
		g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: touchFlows, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, state: func() any { return []any{records(t, touchFlows, a.UEState), a.Rejected()} }})

	// The benchmark's chain: six NFs, one shared classifier (MR).
	return append(worlds, sfcWorld(t, "sfc6-mr", false, compile.SFCOptions{RemoveRedundantMatching: true}))
}

// sfcWorld builds the paper's six-NF chain (LB → NAT → NM → FW×3) over a
// fully populated flow table — separate per-NF pools, or with fused the
// one co-access-packed pool of the DP optimization — compiled under opts.
func sfcWorld(t *testing.T, name string, fused bool, opts compile.SFCOptions) touchWorld {
	t.Helper()
	cfg := traffic.FlowGenConfig{Flows: touchFlows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3}
	src := func(t *testing.T) rt.Source {
		g, err := traffic.NewFlowGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	as := mem.NewAddressSpace()
	chain, err := deploy.NewChain(as, 6, touchFlows, fused)
	if err != nil {
		t.Fatal(err)
	}
	g := src(t).(*traffic.FlowGen)
	tuples := make([]pkt.FiveTuple, touchFlows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		t.Fatal(err)
	}
	prog, err := compile.BuildSFC("sfc6", chain, opts)
	if err != nil {
		t.Fatal(err)
	}
	return touchWorld{name: name, as: as, prog: prog, src: src, state: func() any {
		var all []any
		for _, c := range chain {
			switch c := c.(type) {
			case *lb.LB:
				all = append(all, records(t, touchFlows, c.Flow))
			case *nat.NAT:
				all = append(all, natFlows(t, c))
			case *monitor.Monitor:
				all = append(all, monitorFlows(t, c), c.Totals())
			case *fw.FW:
				all = append(all, records(t, touchFlows, c.Flow), c.Drops())
			default:
				t.Fatalf("chain member %s has no state snapshot", c.Name())
			}
		}
		return all
	}}
}

func TestTouchSeesWhatFnSees(t *testing.T) {
	const packets = 6000
	for _, w := range touchWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			rec := &touchRecorder{t: t, pending: make(map[*model.Exec]taskView), fired: make(map[string]int)}
			touching := rec.wrap(w.prog)
			if len(touching) == 0 {
				t.Fatal("program carries no Touch")
			}
			core, err := sim.NewCore(sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			as := *w.as
			worker, err := rt.NewWorker(core, &as, w.prog, rt.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := worker.Run(w.src(t), packets)
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != packets {
				t.Fatalf("%d of %d packets completed", res.Packets, packets)
			}
			if len(rec.pending) != 0 {
				t.Fatalf("%d Touch calls never followed by their Fn", len(rec.pending))
			}
			for _, name := range touching {
				// start_reg's context lines share a cache line with the
				// ones its load step (identify) just fetched, so its own
				// P-stage never issues under the natural layout.
				if rec.fired[name] == 0 && name != "start_reg" {
					t.Errorf("action %s: its Touch never ran; the check proved nothing for it", name)
				}
			}
		})
	}
}
