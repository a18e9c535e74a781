package model

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// buildCounter builds a one-module program with n chained states, each
// incrementing a counter cell, using the shared event vocabulary
// {packet, done, step}.
func buildCounter(t *testing.T, name string, n int, hits *[]string) *Program {
	t.Helper()
	b := NewBuilder(name)
	evStep := b.Event("step")
	b.AddModule("m", Binding{}, nil)
	for i := 0; i < n; i++ {
		label := name + "-" + string(rune('a'+i))
		state := "s" + string(rune('a'+i))
		last := i == n-1
		b.AddState("m", state, Action{
			Name: "act_" + state,
			Kind: ActionData,
			Cost: 1,
			Fn: func(e *Exec) EventID {
				*hits = append(*hits, label)
				if last {
					return EvDone
				}
				return evStep
			},
		})
	}
	for i := 0; i < n-1; i++ {
		b.AddTransition("m.s"+string(rune('a'+i)), "step", "m.s"+string(rune('a'+i+1)))
	}
	b.AddTransition("m.s"+string(rune('a'+n-1)), "done", EndName)
	b.SetStart("m.sa")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runComposite(t *testing.T, p *Program) {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{Core: core, TempAddr: 0x100}
	e.ResetStream(&pkt.Packet{Addr: 0x2000}, p.Start(), 0)
	for i := 0; !e.Done; i++ {
		if err := p.Step(e); err != nil {
			t.Fatal(err)
		}
		if i > 100 {
			t.Fatal("composite did not terminate")
		}
	}
}

func TestComposeSequential(t *testing.T) {
	var hits []string
	p1 := buildCounter(t, "first", 2, &hits)
	p2 := buildCounter(t, "second", 2, &hits)
	comp, err := Compose("chain", p1, p2, ComposeSequential)
	if err != nil {
		t.Fatal(err)
	}
	// 2 + 2 states + End.
	if comp.NumCS() != 5 {
		t.Fatalf("NumCS = %d, want 5", comp.NumCS())
	}
	runComposite(t, comp)
	want := []string{"first-a", "first-b", "second-a", "second-b"}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestComposeSequentialDistinctEventVocabularies(t *testing.T) {
	var hits []string
	p1 := buildCounter(t, "first", 2, &hits)

	// Second program uses a different custom event name.
	b := NewBuilder("second")
	evGo := b.Event("advance")
	b.AddModule("m", Binding{}, nil)
	b.AddState("m", "x", Action{Name: "x", Fn: func(e *Exec) EventID {
		hits = append(hits, "second-x")
		return evGo
	}})
	b.AddState("m", "y", Action{Name: "y", Fn: func(e *Exec) EventID {
		hits = append(hits, "second-y")
		return EvDone
	}})
	b.AddTransition("m.x", "advance", "m.y")
	b.AddTransition("m.y", "done", EndName)
	b.SetStart("m.x")
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	comp, err := Compose("chain", p1, p2, ComposeSequential)
	if err != nil {
		t.Fatal(err)
	}
	runComposite(t, comp)
	if len(hits) != 4 || hits[3] != "second-y" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestComposeLockstep(t *testing.T) {
	var hits []string
	p1 := buildCounter(t, "primary", 3, &hits)
	p2 := buildCounter(t, "observer", 3, &hits)
	comp, err := Compose("prod", p1, p2, ComposeLockstep)
	if err != nil {
		t.Fatal(err)
	}
	runComposite(t, comp)
	// Lockstep: both factors advance on each shared event; the
	// observer's action runs before the primary's at each product state.
	want := []string{
		"observer-a", "primary-a",
		"observer-b", "primary-b",
		"observer-c", "primary-c",
	}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v", hits)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

// setTouches gives the named actions of p a Touch that records its
// label, the way buildCounter's Fns record theirs.
func setTouches(t *testing.T, p *Program, touched *[]string, names ...string) {
	t.Helper()
	for id := 0; id < p.NumActions(); id++ {
		act, err := p.Action(ActionID(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if act.Name == n {
				label := p.Name() + ":" + n
				act.Touch = func(*Exec) { *touched = append(*touched, label) }
			}
		}
	}
}

// TestComposeTouch checks that composition carries the factors' host
// prefetches: lockstep sequences the live factors' Touch funcs in Fn
// order and leaves a nil Touch where no factor has one; sequential
// copies them through with the actions.
func TestComposeTouch(t *testing.T) {
	var hits, touched []string
	p1 := buildCounter(t, "primary", 2, &hits)
	p2 := buildCounter(t, "observer", 3, &hits)
	setTouches(t, p1, &touched, "act_sa", "act_sb")
	setTouches(t, p2, &touched, "act_sa")

	// touchesOf calls every action's Touch in table order and returns
	// "action=what it recorded" for each; a nil Touch records "-".
	touchesOf := func(p *Program) []string {
		var out []string
		for id := 0; id < p.NumActions(); id++ {
			act, _ := p.Action(ActionID(id))
			touched = nil
			if act.Touch == nil {
				touched = []string{"-"}
			} else {
				act.Touch(nil)
			}
			out = append(out, act.Name+"="+strings.Join(touched, "+"))
		}
		return out
	}

	lock, err := Compose("prod", p1, p2, ComposeLockstep)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(touchesOf(lock), " ")
	for _, want := range []string{
		// Observer before primary, as their Fns run.
		"(m.sa,m.sa)=observer:act_sa+primary:act_sa",
		"(m.sb,m.sb)=primary:act_sb",
		"(End,m.sc)=-",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("lockstep: no %q in %q", want, got)
		}
	}

	seq, err := Compose("chain", p1, p2, ComposeSequential)
	if err != nil {
		t.Fatal(err)
	}
	got = strings.Join(touchesOf(seq), " ")
	want := "act_sa=primary:act_sa act_sb=primary:act_sb act_sa=observer:act_sa act_sb=- act_sc=-"
	if got != want {
		t.Errorf("sequential: touches %q, want %q", got, want)
	}
}

func TestComposeLockstepUnbalanced(t *testing.T) {
	var hits []string
	p1 := buildCounter(t, "long", 3, &hits)
	p2 := buildCounter(t, "short", 2, &hits)
	comp, err := Compose("prod", p1, p2, ComposeLockstep)
	if err != nil {
		t.Fatal(err)
	}
	runComposite(t, comp)
	// short finishes after two events ("step" then its own "done"...).
	// The primary's events drive transitions; after short ends, long
	// continues alone.
	if len(hits) < 5 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[len(hits)-1] != "long-c" {
		t.Fatalf("last hit = %v", hits)
	}
}

func TestComposeLockstepIncompatibleVocabularies(t *testing.T) {
	var hits []string
	p1 := buildCounter(t, "a", 2, &hits)
	b := NewBuilder("b")
	b.Event("weird")
	b.AddModule("m", Binding{}, nil)
	b.AddState("m", "s", Action{Name: "s", Fn: func(e *Exec) EventID { return EvDone }})
	b.AddTransition("m.s", "done", EndName)
	b.SetStart("m.s")
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compose("x", p1, p2, ComposeLockstep); err == nil {
		t.Fatal("incompatible vocabularies accepted")
	}
}

func TestComposeUnknownMode(t *testing.T) {
	var hits []string
	p := buildCounter(t, "a", 2, &hits)
	if _, err := Compose("x", p, p, ComposeMode(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestComposeSequentialChargesState(t *testing.T) {
	// Programs with real state spans must keep charging them after
	// composition.
	as := mem.NewAddressSpace()
	pool, err := mem.NewPool(as, "p", 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Program {
		b := NewBuilder(name)
		b.AddModule("m", Binding{PerFlow: pool}, nil)
		b.AddState("m", "s", Action{
			Name:  "s",
			Cost:  1,
			Reads: []FieldRef{Raw(KindPerFlow, BasePerFlow, 0, 8)},
			Fn:    func(e *Exec) EventID { return EvDone },
		})
		b.AddTransition("m.s", "done", EndName)
		b.SetStart("m.s")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	comp, err := Compose("c", mk("one"), mk("two"), ComposeSequential)
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{Core: core, TempAddr: 0x100}
	e.ResetStream(&pkt.Packet{Addr: 0x2000}, comp.Start(), 0)
	e.FlowIdx = 1
	for !e.Done {
		if err := comp.Step(e); err != nil {
			t.Fatal(err)
		}
	}
	if ctr := core.Counters(); ctr.Reads != 2 {
		t.Fatalf("composite charged %d reads, want 2", ctr.Reads)
	}
}
