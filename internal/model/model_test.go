package model

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// testEnv builds a minimal one-module program:
//
//	m.load  --go--> m.store --done--> End
//
// load reads 8 bytes of per-flow state, store writes 8 bytes.
type testEnv struct {
	prog *Program
	pool *mem.Pool
	core *sim.Core
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	as := mem.NewAddressSpace()
	pool, err := mem.NewPool(as, "flows", 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := mem.NewLayout(mem.Field{Name: "counter", Size: 8}, mem.Field{Name: "verdict", Size: 8})
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder("test")
	b.AddModule("m", Binding{PerFlow: pool, PerFlowLayout: layout})
	b.AddState("m", "load", Action{
		Name:  "load",
		Cost:  10,
		Reads: []FieldRef{Fields(BasePerFlow, "counter")},
		Fn: func(e *Exec) EventID {
			e.Temp[0]++
			return EventID(3) // "go", interned below as the first custom event
		},
	})
	b.AddState("m", "store", Action{
		Name:   "store",
		Cost:   5,
		Writes: []FieldRef{Fields(BasePerFlow, "verdict")},
		Fn: func(e *Exec) EventID {
			return EvDone
		},
	})
	if got := b.Event("go"); got != 3 {
		t.Fatalf("custom event id = %d, want 3", got)
	}
	b.AddTransition("m.load", "go", "m.store")
	b.AddTransition("m.store", "done", EndName)
	b.SetStart("m.load")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{prog: prog, pool: pool, core: core}
}

func newExec(env *testEnv) *Exec {
	e := &Exec{Core: env.core}
	p := &pkt.Packet{Addr: 0x2000, WireLen: 64}
	e.ResetStream(p, env.prog.Start(), 0)
	e.FlowIdx = 3
	return e
}

func TestProgramStepRunsToEnd(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)

	steps := 0
	for !e.Done {
		if err := env.prog.Step(e); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10 {
			t.Fatal("program did not terminate")
		}
	}
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	ctr := env.core.Counters()
	if ctr.Reads != 1 || ctr.Writes != 1 {
		t.Fatalf("charged reads=%d writes=%d, want 1/1", ctr.Reads, ctr.Writes)
	}
	if ctr.Instructions < 15 {
		t.Fatalf("instructions = %d, want >= 15 (action costs)", ctr.Instructions)
	}
	if e.AccessCycles == 0 {
		t.Fatal("AccessCycles not accumulated")
	}
}

func TestStepChargesDeclaredSpanAddresses(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	// The read span resolves to pool entry 3's "counter" field; reading
	// it again now must be an L1 hit.
	addr := env.pool.AddrAt(3)
	base := env.core.Counters()
	env.core.Read(addr, 8)
	if d := env.core.Counters().Sub(base); d.L1Hits != 1 {
		t.Fatalf("per-flow line not warm after Step: %+v", d)
	}
}

func TestStepAtEndIsNoop(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	e.CS = CSEnd
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	if !e.Done {
		t.Fatal("Step at End did not mark Done")
	}
}

func TestStepInvalidTransition(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	// Force the store state to emit an event with no transition by
	// corrupting the transition table.
	cs := csNamed(t, env.prog, "m.store")
	info, err := env.prog.CS(cs)
	if err != nil {
		t.Fatal(err)
	}
	info.Next[EvDone] = -1
	e.CS = cs
	if err := env.prog.Step(e); err == nil {
		t.Fatal("missing transition not reported")
	} else if !strings.Contains(err.Error(), "no transition") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPrefetchCurrentAndResident(t *testing.T) {
	cold := newTestEnv(t)
	if cold.prog.EnsurePrefetched(newExec(cold)) {
		t.Fatal("cold state reported resident")
	}

	env := newTestEnv(t)
	e := newExec(env)
	env.prog.PrefetchCurrent(e)
	if !e.Prefetched {
		t.Fatal("P-state not set by PrefetchCurrent")
	}
	if ctr := env.core.Counters(); ctr.PrefetchIssued == 0 {
		t.Fatal("no prefetch issued")
	}
	e.Prefetched = false
	before := env.core.Counters()
	if !env.prog.EnsurePrefetched(e) {
		t.Fatal("prefetched span not resident")
	}
	if env.core.Counters() != before {
		t.Fatal("resident P-state visit charged the core")
	}
	// Executing after the fill window must be an L1 hit.
	env.core.Compute(1000)
	base := env.core.Counters()
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	if d := env.core.Counters().Sub(base); d.L1Misses != 0 {
		t.Fatalf("post-prefetch step missed: %+v", d)
	}
}

// TestTouchOnlyOnIssuingVisit pins when the P-stage runs an action's
// host-side Touch: once on every visit that issues the simulated fetch,
// never on a visit that finds the plan resident, never from Step.
func TestTouchOnlyOnIssuingVisit(t *testing.T) {
	env := newTestEnv(t)
	touched := 0
	for id := 0; id < env.prog.NumActions(); id++ {
		act, err := env.prog.Action(ActionID(id))
		if err != nil {
			t.Fatal(err)
		}
		act.Touch = func(*Exec) { touched++ }
	}
	env.prog.CompilePlans()
	e := newExec(env)
	want := func(n int, when string) {
		t.Helper()
		if touched != n {
			t.Fatalf("%s: Touch ran %d times in total, want %d", when, touched, n)
		}
	}

	if env.prog.EnsurePrefetched(e) {
		t.Fatal("cold state reported resident")
	}
	want(1, "issuing EnsurePrefetched")
	e.Prefetched = false
	if !env.prog.EnsurePrefetched(e) {
		t.Fatal("issued plan not resident")
	}
	want(1, "resident EnsurePrefetched")
	env.prog.PrefetchCurrent(e)
	want(2, "PrefetchCurrent (issues blind)")
	if err := env.prog.Step(e); err != nil {
		t.Fatal(err)
	}
	want(2, "Step")
	// m.store writes the line m.load read: resident, no issue, no Touch.
	if !env.prog.EnsurePrefetched(e) {
		t.Fatal("store's line not resident after load")
	}
	want(2, "resident successor")
	e.CS = CSEnd
	env.prog.EnsurePrefetched(e)
	env.prog.PrefetchCurrent(e)
	want(2, "End state")
}

func TestPrefetchAtEndTrivial(t *testing.T) {
	env := newTestEnv(t)
	e := newExec(env)
	e.CS = CSEnd
	env.prog.PrefetchCurrent(e)
	if !e.Prefetched {
		t.Fatal("End state must be trivially prefetched")
	}
	e.Prefetched = false
	if !env.prog.EnsurePrefetched(e) || !e.Prefetched {
		t.Fatal("End state must be trivially resident")
	}
}

func TestProgramLookups(t *testing.T) {
	env := newTestEnv(t)
	p := env.prog
	if p.Name() != "test" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.NumCS() != 3 || p.NumActions() != 2 {
		t.Fatalf("NumCS=%d NumActions=%d", p.NumCS(), p.NumActions())
	}
	csNamed(t, p, "m.load")
	if len(p.events) != 4 || p.events[3] != "go" {
		t.Fatalf("events = %q, want \"go\" interned fourth of 4", p.events)
	}
	if p.EventName(EvPacket) != "packet" || p.EventName(99) == "" {
		t.Fatal("EventName misbehaved")
	}
	if _, err := p.CS(99); err == nil {
		t.Fatal("CS(99) succeeded")
	}
	if _, err := p.Action(99); err == nil {
		t.Fatal("Action(99) succeeded")
	}
}

// csNamed returns the id of p's control state called name.
func csNamed(t *testing.T, p *Program, name string) CSID {
	t.Helper()
	for i := range p.cs {
		if p.cs[i].Name == name {
			return CSID(i)
		}
	}
	t.Fatalf("no control state %q", name)
	return 0
}

func TestBuilderErrors(t *testing.T) {
	noop := func(e *Exec) EventID { return EvDone }
	tests := []struct {
		name  string
		build func(b *Builder)
	}{
		{"duplicate module", func(b *Builder) {
			b.AddModule("m", Binding{})
			b.AddModule("m", Binding{})
		}},
		{"dotted module name", func(b *Builder) {
			b.AddModule("a.b", Binding{})
		}},
		{"state in unknown module", func(b *Builder) {
			b.AddState("ghost", "s", Action{Name: "a", Fn: noop})
		}},
		{"duplicate state", func(b *Builder) {
			b.AddModule("m", Binding{})
			b.AddState("m", "s", Action{Name: "a", Fn: noop})
			b.AddState("m", "s", Action{Name: "a", Fn: noop})
		}},
		{"nil Fn", func(b *Builder) {
			b.AddModule("m", Binding{})
			b.AddState("m", "s", Action{Name: "a"})
		}},
		{"empty state name", func(b *Builder) {
			b.AddModule("m", Binding{})
			b.AddState("m", "", Action{Name: "a", Fn: noop})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder("p")
			tt.build(b)
			b.SetStart("m.s")
			if _, err := b.Build(); err == nil {
				t.Fatal("Build succeeded despite invalid input")
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	noop := func(e *Exec) EventID { return EvDone }
	newOK := func() *Builder {
		b := NewBuilder("p")
		b.AddModule("m", Binding{})
		b.AddState("m", "s", Action{Name: "a", Fn: noop})
		b.AddTransition("m.s", "done", EndName)
		b.SetStart("m.s")
		return b
	}
	if _, err := newOK().Build(); err != nil {
		t.Fatalf("baseline build failed: %v", err)
	}

	b := newOK()
	b.SetStart("")
	if _, err := b.Build(); err == nil {
		t.Fatal("missing start accepted")
	}

	b = newOK()
	b.SetStart("m.ghost")
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown start accepted")
	}

	b = newOK()
	b.AddTransition("m.ghost", "done", EndName)
	if _, err := b.Build(); err == nil {
		t.Fatal("transition from unknown state accepted")
	}

	b = newOK()
	b.AddTransition("m.s", "done", "m.ghost")
	if _, err := b.Build(); err == nil {
		t.Fatal("transition to unknown state accepted")
	}

	b = newOK()
	b.AddTransition("End", "done", "m.s")
	if _, err := b.Build(); err == nil {
		t.Fatal("transition out of End accepted")
	}

	b = newOK()
	b.AddState("m", "t", Action{Name: "b", Fn: noop}) // no outgoing transition
	if _, err := b.Build(); err == nil {
		t.Fatal("state without exits accepted")
	}

	b = newOK()
	b.AddTransition("m.s", "done", "m.s") // conflicting duplicate
	if _, err := b.Build(); err == nil {
		t.Fatal("conflicting transitions accepted")
	}
}

func TestBuilderUnknownLayoutField(t *testing.T) {
	b := NewBuilder("p")
	layout, err := mem.NewLayout(mem.Field{Name: "x", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.AddModule("m", Binding{PerFlowLayout: layout})
	b.AddState("m", "s", Action{
		Name:  "a",
		Reads: []FieldRef{Fields(BasePerFlow, "ghost")},
		Fn:    func(e *Exec) EventID { return EvDone },
	})
	b.AddTransition("m.s", "done", EndName)
	b.SetStart("m.s")
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown layout field accepted")
	}
}

// TestBuilderMissingLayout holds the one-record rule: a Fields ref
// resolves only against the per-flow or sub-flow layout in its module's
// Binding, so naming fields of a class with no layout there fails Build
// with an error naming the module and the class.
func TestBuilderMissingLayout(t *testing.T) {
	layout, err := mem.NewLayout(mem.Field{Name: "x", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Both layouts present: the classes without one never borrow them.
	full := Binding{PerFlowLayout: layout, SubFlowLayout: layout}
	tests := []struct {
		base BaseKind
		bind Binding
	}{
		{BasePerFlow, Binding{SubFlowLayout: layout}},
		{BaseSubFlow, Binding{PerFlowLayout: layout}},
		{BasePacket, full},
		{BaseControl, full},
		{BaseDynamic, full},
	}
	for _, tc := range tests {
		t.Run(tc.base.String(), func(t *testing.T) {
			b := NewBuilder("p")
			b.AddModule("mod", tc.bind)
			b.AddState("mod", "s", Action{
				Name:  "a",
				Reads: []FieldRef{Fields(tc.base, "x")},
				Fn:    func(e *Exec) EventID { return EvDone },
			})
			b.AddTransition("mod.s", "done", EndName)
			b.SetStart("mod.s")
			_, err := b.Build()
			if err == nil {
				t.Fatal("missing layout accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, "module mod") || !strings.Contains(msg, tc.base.String()) {
				t.Fatalf("error %q does not name module mod and base %v", msg, tc.base)
			}
		})
	}
}

func TestCoalesce(t *testing.T) {
	tests := []struct {
		name string
		in   []Span
		want int
	}{
		{"empty", nil, 0},
		{"single", []Span{{BasePerFlow, 0, 8}}, 1},
		{"adjacent same line", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 8, 8}}, 1},
		{"gap same line", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 48, 8}}, 1},
		{"different lines", []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 128, 8}}, 2},
		{"different bases", []Span{{BasePerFlow, 0, 8}, {BasePacket, 0, 8}}, 2},
		{"unsorted merge", []Span{{BasePerFlow, 48, 8}, {BasePerFlow, 0, 8}}, 1},
		{"overlap", []Span{{BasePerFlow, 0, 16}, {BasePerFlow, 8, 16}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := coalesce(append([]Span(nil), tt.in...))
			if len(got) != tt.want {
				t.Fatalf("coalesce(%v) = %v, want %d spans", tt.in, got, tt.want)
			}
		})
	}
}

func TestCoalesceCoversInputs(t *testing.T) {
	in := []Span{{BasePerFlow, 0, 8}, {BasePerFlow, 48, 16}}
	got := coalesce(append([]Span(nil), in...))
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if got[0].Off != 0 || got[0].Size != 64 {
		t.Fatalf("merged span = %+v, want [0,64)", got[0])
	}
}

func TestResolveBases(t *testing.T) {
	as := mem.NewAddressSpace()
	pf, err := mem.NewPool(as, "pf", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := mem.NewPool(as, "sf", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	bind := &Binding{PerFlow: pf, SubFlow: sf, Control: mem.Region{Base: 0x7000, Size: 64}}
	e := &Exec{
		Pkt:     &pkt.Packet{Addr: 0x9000},
		FlowIdx: 2,
		SubIdx:  3,
	}
	e.Cur.Addr = 0xB000

	tests := []struct {
		span Span
		want uint64
	}{
		{Span{BasePerFlow, 8, 8}, pf.AddrAt(2) + 8},
		{Span{BaseSubFlow, 0, 8}, sf.AddrAt(3)},
		{Span{BasePacket, 14, 4}, 0x9000 + 14},
		{Span{BaseControl, 4, 4}, 0x7004},
		{Span{BaseDynamic, 0, 64}, 0xB000},
	}
	for _, tt := range tests {
		if got := Resolve(tt.span, bind, e); got != tt.want {
			t.Errorf("Resolve(%+v) = %#x, want %#x", tt.span, got, tt.want)
		}
	}
}

func TestResolveInvalidBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve with invalid base did not panic")
		}
	}()
	Resolve(Span{Base: BaseKind(99)}, nil, &Exec{})
}

func TestResetStream(t *testing.T) {
	e := &Exec{FlowIdx: 5, SubIdx: 6, Key: 7, Done: true, Prefetched: true}
	p := &pkt.Packet{}
	e.ResetStream(p, 4, 42)
	if e.FlowIdx != -1 || e.SubIdx != -1 || e.Key != 0 || e.Done || e.Prefetched {
		t.Fatalf("ResetStream left state: %+v", e)
	}
	if e.CS != 4 || e.Seq != 42 || e.Pkt != p {
		t.Fatalf("ResetStream did not set fields: %+v", e)
	}
	if e.Cur.Idx != -1 {
		t.Fatalf("cursor not reset: %+v", e.Cur)
	}
}

func TestKindAndBaseStrings(t *testing.T) {
	bases := []BaseKind{BasePerFlow, BaseSubFlow, BasePacket, BaseControl, BaseDynamic, BaseKind(99)}
	for _, b := range bases {
		if b.String() == "" {
			t.Fatalf("empty String for %d", int(b))
		}
	}
}

func TestEventInterningIdempotent(t *testing.T) {
	b := NewBuilder("p")
	a := b.Event("x")
	if b.Event("x") != a {
		t.Fatal("re-interning changed id")
	}
	if b.Event("packet") != EvPacket || b.Event("done") != EvDone {
		t.Fatal("builtin events not pre-interned")
	}
}
