package nfc

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/model"
)

// Store is a module's per-flow NF-C state, one word per field, one
// record per flow, selected by the task's FlowIdx: the values of the
// fields its spec `states` declare. The simulated cache footprint is
// declared separately, through the module's per-flow layout.
type Store struct {
	fields []string
	vals   [][]uint64 // vals[record][field]
}

// NewStore builds storage for n records of the given fields.
func NewStore(fields []string, n int) (*Store, error) {
	if len(fields) == 0 || n <= 0 {
		return nil, fmt.Errorf("nfc: store needs fields and a positive record count")
	}
	vals := make([][]uint64, n)
	backing := make([]uint64, n*len(fields))
	for i := range vals {
		vals[i] = backing[i*len(fields) : (i+1)*len(fields)]
	}
	return &Store{fields: append([]string(nil), fields...), vals: vals}, nil
}

// Fields returns the store's field names in index order.
func (s *Store) Fields() []string { return append([]string(nil), s.fields...) }

// Get reads field idx of record rec.
func (s *Store) Get(rec, idx int) (uint64, error) {
	if rec < 0 || rec >= len(s.vals) || idx < 0 || idx >= len(s.fields) {
		return 0, fmt.Errorf("nfc: store access (%d,%d) out of range", rec, idx)
	}
	return s.vals[rec][idx], nil
}

// Set writes field idx of record rec.
func (s *Store) Set(rec, idx int, v uint64) error {
	if rec < 0 || rec >= len(s.vals) || idx < 0 || idx >= len(s.fields) {
		return fmt.Errorf("nfc: store access (%d,%d) out of range", rec, idx)
	}
	s.vals[rec][idx] = v
	return nil
}

// fieldRefs translates a compiled action's access sets into model
// FieldRefs: packet fields become wire-offset spans, per-flow fields
// one reference resolved against the module's per-flow layout (which
// must name the same fields).
func fieldRefs(accesses map[Root][]string) []model.FieldRef {
	var refs []model.FieldRef
	for _, f := range accesses[RootPacket] {
		pf := packetFields[f]
		refs = append(refs, model.Raw(model.BasePacket, pf.off, pf.size))
	}
	if fields := accesses[RootPerFlow]; len(fields) > 0 {
		refs = append(refs, model.Fields(model.BasePerFlow, fields...))
	}
	return refs
}

// ToAction assembles a runnable model.Action from a compiled NF-C
// action bound to its module's per-flow store: the extracted
// read/write sets become the declared (and hence prefetched and
// charged) state spans, and the interpreter body becomes the Fn.
// Events are interned on b; emitting no event yields "done". Only
// Packet and PerFlowState bind at run time, so an action touching any
// other root is an error.
func ToAction(c *Compiled, store *Store, b *model.Builder) (model.Action, error) {
	for _, r := range []Root{RootSubFlow, RootControl, RootTemp} {
		if len(c.Reads[r])+len(c.Writes[r]) > 0 {
			return model.Action{}, fmt.Errorf("nfc: action %s: %s does not bind at run time (only Packet and PerFlowState do)", c.Name, r)
		}
	}
	evByRunIdx := make([]model.EventID, len(c.Events))
	for i, ev := range c.Events {
		evByRunIdx[i] = b.Event(ev)
	}
	run := c.run
	return model.Action{
		Name:   c.Name,
		Cost:   c.Cost,
		Reads:  fieldRefs(c.Reads),
		Writes: fieldRefs(c.Writes),
		Fn: func(e *model.Exec) model.EventID {
			idx := run(e, store)
			if idx < 0 || idx >= len(evByRunIdx) {
				return model.EvDone
			}
			return evByRunIdx[idx]
		},
	}, nil
}
