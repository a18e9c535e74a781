package model

import (
	"fmt"
	"sort"
	"strings"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// EndName is the reserved control-state name for stream completion.
const EndName = "End"

// Builder assembles a Program from modules, control states, actions and
// transitions. It is the target both of the spec compiler (internal/
// compile) and of NFs constructed directly in Go.
type Builder struct {
	name    string
	events  []string
	modules map[string]*Binding
	csNames []string // "module.state", insertion order
	csDefs  map[string]*csDef
	trans   []transDef
	start   string
	err     error
}

type csDef struct {
	module string
	action Action
}

type transDef struct {
	from, event, to string
}

// NewBuilder starts a program named name with the builtin events
// pre-interned.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		events:  []string{"", "packet", "done"},
		modules: make(map[string]*Binding),
		csDefs:  make(map[string]*csDef),
	}
}

// Fail records err as the build's error unless one is already recorded;
// Build returns it. Registration calls that fail record their error
// here, so call sites chain without per-call checks, and so can a
// contributor whose own set-up fails while it registers (an NF whose
// match table cannot take its installed keys).
func (b *Builder) Fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Event interns an event name and returns its id. Re-interning an
// existing name returns the existing id.
func (b *Builder) Event(name string) EventID {
	for i, n := range b.events {
		if n == name {
			return EventID(i)
		}
	}
	b.events = append(b.events, name)
	return EventID(len(b.events) - 1)
}

// AddModule declares a module with its state binding.
func (b *Builder) AddModule(name string, bind Binding) {
	if name == "" || strings.Contains(name, ".") {
		b.Fail(fmt.Errorf("model: invalid module name %q", name))
		return
	}
	if _, dup := b.modules[name]; dup {
		b.Fail(fmt.Errorf("model: duplicate module %q", name))
		return
	}
	b.modules[name] = &bind
}

// AddState adds a control state to a module with its action.
func (b *Builder) AddState(module, state string, act Action) {
	if _, ok := b.modules[module]; !ok {
		b.Fail(fmt.Errorf("model: AddState: unknown module %q", module))
		return
	}
	full := module + "." + state
	if full == EndName || state == "" {
		b.Fail(fmt.Errorf("model: invalid state name %q", state))
		return
	}
	if _, dup := b.csDefs[full]; dup {
		b.Fail(fmt.Errorf("model: duplicate control state %q", full))
		return
	}
	if act.Fn == nil {
		b.Fail(fmt.Errorf("model: state %q: action %q has no Fn", full, act.Name))
		return
	}
	b.csDefs[full] = &csDef{module: module, action: act}
	b.csNames = append(b.csNames, full)
}

// AddTransition wires Δ(from, event) = to. State names are
// "module.state"; to may be EndName.
func (b *Builder) AddTransition(from, event, to string) {
	b.Event(event)
	b.trans = append(b.trans, transDef{from: from, event: event, to: to})
}

// SetStart marks the control state entered on the "packet" system event.
func (b *Builder) SetStart(name string) {
	b.start = name
}

// compileRefs lowers FieldRefs to coalesced spans against the module's
// binding.
func (b *Builder) compileRefs(module string, refs []FieldRef) ([]Span, error) {
	bind := b.modules[module]
	spans := make([]Span, 0, len(refs))
	for _, ref := range refs {
		if ref.Explicit != nil {
			spans = append(spans, *ref.Explicit)
			continue
		}
		layout := bind.layout(ref.Base)
		if layout == nil {
			return nil, fmt.Errorf("model: module %s has no %v layout", module, ref.Base)
		}
		for _, f := range ref.Fields {
			off, size, err := layout.Span(f)
			if err != nil {
				return nil, fmt.Errorf("model: module %s %v state: %w", module, ref.Base, err)
			}
			spans = append(spans, Span{Base: ref.Base, Off: off, Size: size})
		}
	}
	return coalesce(spans), nil
}

// coalesce sorts spans by (base, offset) and merges neighbours whose
// line coverage is contiguous, so prefetch plans touch the minimum
// number of distinct lines.
func coalesce(spans []Span) []Span {
	if len(spans) <= 1 {
		return spans
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Base != spans[j].Base {
			return spans[i].Base < spans[j].Base
		}
		return spans[i].Off < spans[j].Off
	})
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		lastEnd := last.Off + last.Size
		// Merging never touches extra lines when the gap stays within
		// the line already covered by the previous span.
		lineEnd := (lastEnd + sim.LineBytes - 1) &^ uint64(sim.LineBytes-1)
		if s.Base == last.Base && s.Off <= lineEnd {
			if end := s.Off + s.Size; end > lastEnd {
				last.Size = end - last.Off
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Build assembles and validates the Program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.start == "" {
		return nil, fmt.Errorf("model: program %s: no start state", b.name)
	}
	p := &Program{
		name:   b.name,
		events: append([]string(nil), b.events...),
	}
	// CS 0 is End.
	p.cs = append(p.cs, CSInfo{Name: EndName})
	ids := map[string]CSID{EndName: CSEnd}

	actionIDs := make(map[string]ActionID)
	for _, full := range b.csNames {
		def := b.csDefs[full]

		reads, err := b.compileRefs(def.module, def.action.Reads)
		if err != nil {
			return nil, fmt.Errorf("model: state %s reads: %w", full, err)
		}
		writes, err := b.compileRefs(def.module, def.action.Writes)
		if err != nil {
			return nil, fmt.Errorf("model: state %s writes: %w", full, err)
		}

		aid, ok := actionIDs[def.module+"."+def.action.Name]
		if !ok {
			aid = ActionID(len(p.actions))
			p.actions = append(p.actions, def.action)
			actionIDs[def.module+"."+def.action.Name] = aid
		}

		ids[full] = CSID(len(p.cs))
		p.cs = append(p.cs, CSInfo{
			Name:     full,
			Action:   aid,
			Reads:    reads,
			Writes:   writes,
			Prefetch: coalesce(append(append([]Span{}, reads...), writes...)),
			Bind:     b.modules[def.module],
		})
	}

	// Transition tables.
	for i := range p.cs {
		p.cs[i].Next = make([]CSID, len(p.events))
		for j := range p.cs[i].Next {
			p.cs[i].Next[j] = -1
		}
	}
	for _, tr := range b.trans {
		from, ok := ids[tr.from]
		if !ok {
			return nil, fmt.Errorf("model: transition from unknown state %q", tr.from)
		}
		if from == CSEnd {
			return nil, fmt.Errorf("model: transition out of End state")
		}
		to, ok := ids[tr.to]
		if !ok {
			return nil, fmt.Errorf("model: transition to unknown state %q", tr.to)
		}
		ev := b.Event(tr.event) // already interned; lookup only
		if p.cs[from].Next[ev] != -1 && p.cs[from].Next[ev] != to {
			return nil, fmt.Errorf("model: conflicting transitions from %s on %q", tr.from, tr.event)
		}
		p.cs[from].Next[ev] = to
	}

	start, ok := ids[b.start]
	if !ok || start == CSEnd {
		return nil, fmt.Errorf("model: invalid start state %q", b.start)
	}
	p.start = start

	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.CompilePlans()
	return p, nil
}
