package nf

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// FlowTableConfig is what a five-tuple NF declares about itself to the
// FlowTable it embeds.
type FlowTableConfig[F any] struct {
	// Name is the instance name; every module registers as Name plus a
	// suffix.
	Name string
	// MaxFlows sizes the record slice, the per-flow pool and the match
	// table.
	MaxFlows int
	// States, when non-nil, replaces the per-flow state binding the
	// table would reserve itself from Fields (a fused SFC pool from the
	// data-packing pass).
	States *model.Binding
	// Fields is the per-flow record's simulated layout, natural order.
	Fields []mem.Field
	// NewFlow builds the record installed for tuple at index idx, by
	// AddFlow, AddRecord and a first packet alike.
	NewFlow func(tuple pkt.FiveTuple, idx int32) F
	// Data registers the NF's data module exiting toward next and
	// returns its entry state: the NF's AttachData.
	Data func(b *model.Builder, next string) string
	// MissModule is the module suffix the first-packet states register
	// under.
	MissModule string
	// Walk, when non-nil, registers on MissModule the states a first
	// packet visits before Alloc (the firewall's policy scan); they
	// leave toward the state named alloc. It returns their entry state.
	Walk func(b *model.Builder, module, alloc string) string
	// Alloc and Install name, cost and declare the spans of the two
	// first-packet config states; the table supplies Fn.
	// Alloc must declare no per-flow span: it runs before the packet
	// has a flow index.
	Alloc, Install model.Action
}

// FlowTable is the skeleton of a five-tuple NF (NAT, LB, NM, FW): the
// simulated per-flow states, the cuckoo match table, the Go-side record
// slice and its allocation cursor, and the wiring every such NF shares —
// classifier, then the NF's data action on a hit, the first-packet
// protocol on a miss. The NF embeds it and adds only its record type,
// its data action and its first-packet declarations.
type FlowTable[F any] struct {
	cfg   FlowTableConfig[F]
	bind  *model.Binding
	table *dstruct.Cuckoo
	// built reports that table holds every installed key. Until a
	// classifier attaches or an AddFlow needs the table, AddRecord logs
	// the keys in pending, in flow-index order: entry i is flow i's key.
	built   bool
	pending []uint64
	flows   []F
	// touch prefetches the record at the task's flow index. It is built
	// in NewFlowTable, not in Touch: a closure made by a method that
	// inlines into its caller keeps hostmem.Prefetch as a call.
	touch func(*model.Exec)
	// next is the index the next first packet is installed at.
	next int32
	// drops counts first packets alloc dropped: no room, or an install
	// refused.
	drops uint64
}

// NewFlowTable reserves the table's simulated memory from as: the
// per-flow states (unless cfg.States supplies them), then the match
// table.
func NewFlowTable[F any](as *mem.AddressSpace, cfg FlowTableConfig[F]) (*FlowTable[F], error) {
	if cfg.MaxFlows <= 0 {
		return nil, fmt.Errorf("nf: %s: MaxFlows must be positive, got %d", cfg.Name, cfg.MaxFlows)
	}
	bind := cfg.States
	if bind == nil {
		var err error
		if bind, err = BuildStates(as, cfg.Name, cfg.Fields, cfg.MaxFlows); err != nil {
			return nil, err
		}
	}
	table, err := dstruct.NewCuckoo(as, cfg.Name+".match", cfg.MaxFlows)
	if err != nil {
		return nil, err
	}
	flows := make([]F, cfg.MaxFlows)
	return &FlowTable[F]{
		cfg: cfg, bind: bind, table: table, flows: flows,
		touch: func(e *model.Exec) { hostmem.Prefetch(&flows[e.FlowIdx]) },
	}, nil
}

// Name returns the instance name.
func (t *FlowTable[F]) Name() string { return t.cfg.Name }

// MaxFlows returns the size of the table's flow-index space.
func (t *FlowTable[F]) MaxFlows() int { return len(t.flows) }

// Drops returns the first packets dropped because the table was full.
func (t *FlowTable[F]) Drops() uint64 { return t.drops }

// Records returns the live record slice, indexed by flow index. Data
// actions capture it by value so the per-packet path indexes it
// directly.
func (t *FlowTable[F]) Records() []F { return t.flows }

// Touch returns the host-side half of a data action's per-flow fetch:
// a prefetch of the record the action's Fn will index.
func (t *FlowTable[F]) Touch() func(*model.Exec) { return t.touch }

// Flow returns a copy of flow idx's record.
func (t *FlowTable[F]) Flow(idx int32) (F, error) {
	if idx < 0 || int(idx) >= len(t.flows) {
		var zero F
		return zero, fmt.Errorf("nf: %s: flow %d out of range [0,%d)", t.cfg.Name, idx, len(t.flows))
	}
	return t.flows[idx], nil
}

// AddFlow installs tuple at index idx: a classifier entry and a fresh
// record. Installing at or past the allocation cursor moves it. The
// classifier keys on tuple.Hash(), and Cuckoo.Insert refuses a key
// already installed at another index. The first AddFlow builds the
// table from the keys AddRecord logged.
func (t *FlowTable[F]) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if err := t.checkIndex(idx); err != nil {
		return err
	}
	if err := t.build(); err != nil {
		return err
	}
	if err := t.insert(tuple.Hash(), idx); err != nil {
		return err
	}
	t.install(tuple, idx)
	return nil
}

// AddRecord writes tuple's fresh record at index idx and logs its
// classifier key for the table to be built from when a classifier
// attaches (Attach) or an AddFlow needs it; once the table is built,
// AddRecord is AddFlow. Until then the log is in flow-index order, as
// PopulateFlows and a chain head's first packets install: only the next
// index, idx == the log's length, is accepted. A chain member downstream
// of redundant matching removal has no classifier, so its table is never
// built and the log, 8 B per flow, is what it keeps of its match state;
// the log stays, so the chain still compiles without MR. A duplicate key
// is refused when the table is built.
func (t *FlowTable[F]) AddRecord(tuple pkt.FiveTuple, idx int32) error {
	if t.built {
		return t.AddFlow(tuple, idx)
	}
	if err := t.checkIndex(idx); err != nil {
		return err
	}
	if int(idx) != len(t.pending) {
		return fmt.Errorf("nf: %s: flow index %d logged out of order: the key log holds %d flows",
			t.cfg.Name, idx, len(t.pending))
	}
	if t.pending == nil {
		t.pending = make([]uint64, 0, len(t.flows))
	}
	t.pending = append(t.pending, tuple.Hash())
	t.install(tuple, idx)
	return nil
}

func (t *FlowTable[F]) checkIndex(idx int32) error {
	if idx < 0 || int(idx) >= len(t.flows) {
		return fmt.Errorf("nf: %s: flow index %d out of range [0,%d)", t.cfg.Name, idx, len(t.flows))
	}
	return nil
}

// install writes tuple's fresh record at idx, the one path every record
// is written on, and moves the allocation cursor past it.
func (t *FlowTable[F]) install(tuple pkt.FiveTuple, idx int32) {
	t.flows[idx] = t.cfg.NewFlow(tuple, idx)
	if idx >= t.next {
		t.next = idx + 1
	}
}

// insert adds key→idx to the built table; Cuckoo.Insert refuses a key
// installed at another index.
func (t *FlowTable[F]) insert(key uint64, idx int32) error {
	if err := t.table.Insert(key, idx); err != nil {
		return fmt.Errorf("nf: %s: %w", t.cfg.Name, err)
	}
	return nil
}

// build replays the logged keys into the table, in flow-index order,
// so it comes out as eager AddFlow calls would have left it, and frees
// the log. A refused key fails the build and keeps the log.
func (t *FlowTable[F]) build() error {
	if t.built {
		return nil
	}
	t.table.Allocate()
	for i, key := range t.pending {
		if err := t.insert(key, int32(i)); err != nil {
			return err
		}
	}
	t.built, t.pending = true, nil
	return nil
}

// AddModule registers module Name+suffix bound to the table's per-flow
// state binding and returns its name.
func (t *FlowTable[F]) AddModule(b *model.Builder, suffix string) string {
	m := t.cfg.Name + suffix
	b.AddModule(m, *t.bind)
	return m
}

// Attach registers the whole NF on b — data module, first-packet
// states, classifier — exiting toward next (another NF's entry or
// model.EndName), and returns its entry state. It builds the match
// table from the logged keys; a key the table refuses fails b's Build.
// onAlloc, if not nil, serves the head of a chain compiled with
// redundant matching removal: after a first packet's alloc installs its
// flow, it runs with the packet's tuple and the new index, to install
// the records of the NFs downstream, which have no first-packet path of
// their own. An onAlloc error drops the packet, counted in Drops.
func (t *FlowTable[F]) Attach(b *model.Builder, next string, onAlloc func(pkt.FiveTuple, int32) error) string {
	if err := t.build(); err != nil {
		b.Fail(err)
	}
	cls := Classifier{Table: t.table, Module: t.cfg.Name + "_cls"}
	dataEntry := t.cfg.Data(b, next)
	return cls.Attach(b, dataEntry, t.attachFirstPacket(b, dataEntry, onAlloc))
}

// attachFirstPacket registers the classifier-miss path, two config
// states so the Granular Decomposition Property holds. Alloc decides:
// it either binds the packet to the next free index (match-table entry
// and Go-side record installed) or drops it, counted, leaving table and
// cursor as they were; it resolves no per-flow span, since no index
// exists until it has run. After a successful install alloc runs
// onAlloc, if not nil (see Attach); its error drops the packet,
// counted, with the flow left installed. Install declares the new
// record's per-flow writes, which resolve against the index alloc
// bound, and hands the packet to the data action.
func (t *FlowTable[F]) attachFirstPacket(b *model.Builder, dataEntry string, onAlloc func(pkt.FiveTuple, int32) error) string {
	evFwd := b.Event(EvForward)
	evDrop := b.Event(EvDrop)
	m := t.AddModule(b, t.cfg.MissModule)
	alloc, install := t.cfg.Alloc, t.cfg.Install
	allocState, installState := m+"."+alloc.Name, m+"."+install.Name
	entry := allocState
	if t.cfg.Walk != nil {
		entry = t.cfg.Walk(b, m, allocState)
	}

	alloc.Fn = func(e *model.Exec) model.EventID {
		idx := t.next
		if int(idx) >= len(t.flows) || t.AddFlow(e.Pkt.Tuple, idx) != nil ||
			onAlloc != nil && onAlloc(e.Pkt.Tuple, idx) != nil {
			t.drops++
			return evDrop
		}
		e.FlowIdx = idx
		return evFwd
	}
	install.Fn = func(*model.Exec) model.EventID { return evFwd }
	b.AddState(m, alloc.Name, alloc)
	b.AddState(m, install.Name, install)
	b.AddTransition(allocState, EvForward, installState)
	b.AddTransition(allocState, EvDrop, model.EndName)
	b.AddTransition(installState, EvForward, dataEntry)
	return entry
}

// Program builds the standalone NF program.
func (t *FlowTable[F]) Program() (*model.Program, error) {
	b := model.NewBuilder(t.cfg.Name)
	b.SetStart(t.Attach(b, model.EndName, nil))
	return b.Build()
}
