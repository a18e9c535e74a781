package compile

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/spec"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// FuzzFromSpec runs the spec → program path on arbitrary module, NF
// and NF-C texts: whatever parses and passes FromSpec must run one
// packet under rt.DefaultConfig() and under rt.RTCConfig() without
// panicking (an error is an answer). Seeded with the paper's Listings
// 1–4.
func FuzzFromSpec(f *testing.F) {
	f.Add(classifierSpecSrc, mapperSpecSrc, natSpecSrc, mapperImplSrc)
	f.Fuzz(func(t *testing.T, clsSrc, mapperSrc, nfSrc, nfcSrc string) {
		mods := map[string]*spec.Module{}
		for _, src := range []string{clsSrc, mapperSrc} {
			if m, err := spec.ParseModule(src); err == nil {
				mods[m.Name] = m
			}
		}
		nfSpec, err := spec.ParseNF(nfSrc)
		if err != nil {
			return
		}
		res, err := FromSpec(mem.NewAddressSpace(), SpecUnit{Modules: mods, NF: nfSpec, NFCSource: nfcSrc, MaxFlows: 4})
		if err != nil || cyclic(res.Program) {
			return
		}
		g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 64, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table != nil {
			if err := res.AddFlow(g.FlowTuple(0), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, cfg := range []rt.Config{rt.DefaultConfig(), rt.RTCConfig()} {
			core, err := sim.NewCore(sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			w, err := rt.NewWorker(core, mem.NewAddressSpace(), res.Program, cfg)
			if err != nil {
				continue
			}
			_, _ = w.Run(&oneShotSource{p: g.Next()}, 0)
		}
	})
}

// cyclic reports whether prog's transition graph has a cycle. A stream
// on a cycle runs for as long as its actions keep choosing it (a
// stepwise match walks one), so a fuzzed one may never end; the
// harness skips those programs rather than hang.
func cyclic(prog *model.Program) bool {
	const (
		unseen = iota
		open
		closed
	)
	state := make([]uint8, prog.NumCS())
	var visit func(id model.CSID) bool
	visit = func(id model.CSID) bool {
		if id == model.CSEnd || state[id] == closed {
			return false
		}
		if state[id] == open {
			return true
		}
		state[id] = open
		info, err := prog.CS(id)
		if err != nil {
			return false
		}
		for _, next := range info.Next {
			if next >= 0 && visit(next) {
				return true
			}
		}
		state[id] = closed
		return false
	}
	return visit(prog.Start())
}
