package model_test

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// BenchmarkProgramStep measures the compiled step-plan executor on a
// representative three-state program (per-flow, packet and control spans),
// host nanoseconds per control-state step. The simulated answers are
// pinned by the golden tests and the differential harness; only host
// speed may move here.
func BenchmarkProgramStep(b *testing.B) {
	as := mem.NewAddressSpace()
	perFlow, err := mem.NewPool(as, "pf", 128, 64)
	if err != nil {
		b.Fatal(err)
	}
	control := mem.Region{Name: "ctl", Base: as.Reserve(256, 64), Size: 256}

	bl := model.NewBuilder("bench")
	bl.AddModule("m", model.Binding{PerFlow: perFlow, Control: control})
	adv := bl.Event("adv")
	fn := func(e *model.Exec) model.EventID { return adv }
	span := func(base model.BaseKind, off, size uint64) model.FieldRef {
		return model.FieldRef{Explicit: &model.Span{Base: base, Off: off, Size: size}}
	}
	bl.AddState("m", "A", model.Action{Name: "a", Cost: 20, Fn: fn,
		Reads:  []model.FieldRef{span(model.BasePacket, 14, 20), span(model.BasePerFlow, 0, 16)},
		Writes: []model.FieldRef{span(model.BasePacket, 30, 4)},
	})
	bl.AddState("m", "B", model.Action{Name: "b", Cost: 30, Fn: fn,
		Reads:  []model.FieldRef{span(model.BasePerFlow, 16, 32), span(model.BasePacket, 30, 4)},
		Writes: []model.FieldRef{span(model.BasePerFlow, 16, 16), span(model.BasePacket, 26, 6)},
	})
	bl.AddState("m", "C", model.Action{Name: "c", Cost: 10, Fn: fn,
		Reads:  []model.FieldRef{span(model.BaseControl, 0, 24)},
		Writes: []model.FieldRef{span(model.BaseControl, 24, 8)},
	})
	bl.AddTransition("m.A", "adv", "m.B")
	bl.AddTransition("m.B", "adv", "m.C")
	bl.AddTransition("m.C", "adv", model.EndName)
	bl.SetStart("m.A")
	prog, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}

	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := &pkt.Packet{Addr: as.Reserve(2048, 64), Data: make([]byte, 128)}
	e := &model.Exec{Core: core}
	e.ResetStream(p, prog.Start())
	e.FlowIdx = 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Done {
			e.ResetStream(p, prog.Start())
			e.FlowIdx = 0
		}
		if err := prog.Step(e); err != nil {
			b.Fatal(err)
		}
	}
}
