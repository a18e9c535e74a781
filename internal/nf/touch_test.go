package nf_test

// Every shipped NF sets model.Action.Touch on the actions whose Fn
// dereferences a large Go-side table. A Touch runs one scheduler lap
// before its Fn, so it must find the record from task state that is
// already final at P-stage time. This test wraps every action of every
// shipped program (and of the 6-NF MR+PRR chain) in a recorder and
// checks that the Fn following a Touch on the same task sees the very
// (CS, FlowIdx, SubIdx, Cur.Addr) the Touch saw; an index still at -1 or
// left over from the previous packet would also panic inside the real
// Touch's slice index.

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/director"
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
}

// flowWorld builds a five-tuple NF with the first installed flows of
// the population pre-installed; the rest take the NF's first-packet
// path (which binds FlowIdx in a config action, not in the classifier).
func flowWorld(t *testing.T, name string, installed int, build func(as *mem.AddressSpace) (addFlow func(pkt.FiveTuple, int32) error, prog func() (*model.Program, error), err error)) touchWorld {
	t.Helper()
	cfg := traffic.FlowGenConfig{Flows: touchFlows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3}
	src := func(t *testing.T) rt.Source {
		g, err := traffic.NewFlowGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := src(t).(*traffic.FlowGen)
	as := mem.NewAddressSpace()
	addFlow, program, err := build(as)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < installed; i++ {
		if err := addFlow(g.FlowTuple(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := program()
	if err != nil {
		t.Fatal(err)
	}
	return touchWorld{name: name, as: as, prog: prog, src: src}
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
		flowWorld(t, "nat", touchFlows/2, func(as *mem.AddressSpace) (func(pkt.FiveTuple, int32) error, func() (*model.Program, error), error) {
			n, err := nat.New(as, nat.Config{MaxFlows: touchFlows})
			if err != nil {
				return nil, nil, err
			}
			return n.AddFlow, n.Program, nil
		}),
		flowWorld(t, "lb", touchFlows/2, func(as *mem.AddressSpace) (func(pkt.FiveTuple, int32) error, func() (*model.Program, error), error) {
			l, err := lb.New(as, lb.Config{MaxFlows: touchFlows})
			if err != nil {
				return nil, nil, err
			}
			return l.AddFlow, l.Program, nil
		}),
		// Every flow installed: the firewall's first-packet path cannot
		// run interleaved (its install state declares per-flow writes
		// but binds FlowIdx in its own Fn, so the P-stage resolves
		// index -1 and panics — at the parent commit too; rtc only).
		flowWorld(t, "fw", touchFlows, func(as *mem.AddressSpace) (func(pkt.FiveTuple, int32) error, func() (*model.Program, error), error) {
			f, err := fw.New(as, fw.Config{MaxFlows: touchFlows, Policy: fw.DefaultPolicy(24)})
			if err != nil {
				return nil, nil, err
			}
			return f.AddFlow, f.Program, nil
		}),
		flowWorld(t, "monitor", touchFlows/2, func(as *mem.AddressSpace) (func(pkt.FiveTuple, int32) error, func() (*model.Program, error), error) {
			m, err := monitor.New(as, monitor.Config{MaxFlows: touchFlows})
			if err != nil {
				return nil, nil, err
			}
			return m.AddFlow, m.Program, nil
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
		return touchWorld{name: name, as: as, prog: prog, src: src}
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
	}})

	// The benchmark's chain: six NFs, one shared classifier (MR), later
	// NFs' redundant prefetches removed (PRR).
	cfg := traffic.FlowGenConfig{Flows: touchFlows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 3}
	g, err := traffic.NewFlowGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	as = mem.NewAddressSpace()
	chain, err := director.BuildChain(as, 6, touchFlows)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]pkt.FiveTuple, touchFlows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		t.Fatal(err)
	}
	prog, err = compile.BuildSFC("sfc6", chain, compile.SFCOptions{
		RemoveRedundantMatching: true, RemoveRedundantPrefetches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, touchWorld{name: "sfc6-mr-prr", as: as, prog: prog, src: func(t *testing.T) rt.Source {
		g, err := traffic.NewFlowGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}})
	return worlds
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
			for _, sched := range []string{rt.SchedulerRR, rt.SchedulerWakeup} {
				core, err := sim.NewCore(sim.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				cfg := rt.DefaultConfig()
				cfg.Scheduler = sched
				as := *w.as
				worker, err := rt.NewWorker(core, &as, w.prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := worker.Run(w.src(t), packets)
				if err != nil {
					t.Fatal(err)
				}
				if res.Packets != packets {
					t.Fatalf("%s: %d of %d packets completed", sched, res.Packets, packets)
				}
				if len(rec.pending) != 0 {
					t.Fatalf("%s: %d Touch calls never followed by their Fn", sched, len(rec.pending))
				}
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
