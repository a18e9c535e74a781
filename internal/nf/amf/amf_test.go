package amf

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func newAMF(t *testing.T, ues int) *AMF {
	t.Helper()
	a, err := New(mem.NewAddressSpace(), Config{MaxUEs: ues})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(mem.NewAddressSpace(), Config{MaxUEs: 0}); err == nil {
		t.Fatal("zero UEs accepted")
	}
}

func TestContextExceedsTwentyLines(t *testing.T) {
	a := newAMF(t, 4)
	if a.ContextLines() < 20 {
		t.Fatalf("UE context = %d lines; the paper requires > 20", a.ContextLines())
	}
}

func TestLayoutOverrideValidated(t *testing.T) {
	// A layout missing context fields must be rejected.
	bad, err := mem.NewLayout(mem.Field{Name: "supi", Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mem.NewAddressSpace(), Config{MaxUEs: 4, Layout: bad}); err == nil {
		t.Fatal("incomplete layout accepted")
	}
}

func TestAccessGroupsCoverKnownFields(t *testing.T) {
	known := make(map[string]bool)
	for _, f := range Fields() {
		known[f.Name] = true
	}
	groups := AccessGroups()
	if len(groups) != traffic.NumAMFMessages {
		t.Fatalf("AccessGroups = %d groups, want %d", len(groups), traffic.NumAMFMessages)
	}
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty access group")
		}
		for _, f := range g {
			if !known[f] {
				t.Fatalf("access group references unknown field %q", f)
			}
		}
	}
}

func runProg(t *testing.T, prog *model.Program, src rt.Source, n uint64, interleaved bool) rt.Result {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if interleaved {
		w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(src, n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, rt.RTCConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHandlesAllMessageTypes(t *testing.T) {
	a := newAMF(t, 64)
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := runProg(t, prog, g, 1000, false)
	if res.Packets != 1000 {
		t.Fatalf("processed %d messages", res.Packets)
	}
	if a.Rejected() != 0 {
		t.Fatalf("rejected %d known-UE messages", a.Rejected())
	}
	var msgs uint64
	for i := int32(0); i < 64; i++ {
		ue, err := a.UEState(i)
		if err != nil {
			t.Fatal(err)
		}
		msgs += ue.Msgs
	}
	if msgs != 1000 {
		t.Fatalf("UE message counters sum to %d, want 1000", msgs)
	}
}

func TestSingleMessageMode(t *testing.T) {
	a := newAMF(t, 32)
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: 32, MsgType: traffic.MsgAuthResponse, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	runProg(t, prog, g, 200, false)
	for i := int32(0); i < 32; i++ {
		ue, _ := a.UEState(i)
		if ue.Msgs > 0 && ue.State != traffic.MsgAuthResponse {
			t.Fatalf("UE %d state = %d after auth-only traffic", i, ue.State)
		}
	}
}

func TestUnknownMessageRejected(t *testing.T) {
	a := newAMF(t, 4)
	prog, err := a.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: 4, MsgType: traffic.MsgRegistrationRequest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Next()
	p.MsgType = 99
	src := &oneShot{p: p}
	runProg(t, prog, src, 0, false)
	if a.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", a.Rejected())
	}
}

type oneShot struct {
	p    *pkt.Packet
	sent bool
}

func (s *oneShot) Next() *pkt.Packet {
	if s.sent {
		return nil
	}
	s.sent = true
	return s.p
}

func TestUEStateBounds(t *testing.T) {
	a := newAMF(t, 4)
	if _, err := a.UEState(4); err == nil {
		t.Fatal("out-of-range UE read accepted")
	}
	if _, err := a.UEState(-1); err == nil {
		t.Fatal("negative UE read accepted")
	}
}

// TestExecutionModelsAgree verifies identical message accounting under
// both execution models.
func TestExecutionModelsAgree(t *testing.T) {
	const ues, msgs = 128, 2000
	build := func() (*AMF, *model.Program, *traffic.AMFGen) {
		a := newAMF(t, ues)
		prog, err := a.Program()
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.NewAMFGen(traffic.AMFConfig{UEs: ues, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		return a, prog, g
	}
	a1, p1, g1 := build()
	runProg(t, p1, g1, msgs, false)
	a2, p2, g2 := build()
	runProg(t, p2, g2, msgs, true)
	for i := int32(0); i < ues; i++ {
		u1, _ := a1.UEState(i)
		u2, _ := a2.UEState(i)
		if u1 != u2 {
			t.Fatalf("UE %d diverged: %+v vs %+v", i, u1, u2)
		}
	}
}
