package nfc

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/model"
)

// Store is word-per-field backing storage for a state root whose
// records are selected by the task's match result: per-flow and
// sub-flow NF-C state compiled from spec `states` declarations lives
// here (the simulated cache footprint is declared separately through
// the module layout).
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

// Stores bundles the per-root storage an Env dispatches to.
type Stores struct {
	// PerFlow and SubFlow are indexed by the task's match results.
	PerFlow, SubFlow *Store
	// Control is record 0 of a one-record store.
	Control *Store
}

// NewEnv builds the runtime environment: Packet.* fields resolve
// through the builtin accessor table against the task's packet, other
// roots through the supplied stores, and TempState through the task's
// temp words.
func NewEnv(stores Stores) *Env {
	packetByIdx := make([]packetField, len(packetFields))
	for i, name := range PacketFieldNames() {
		packetByIdx[i] = packetFields[name]
	}
	get := func(root Root, idx int, e *model.Exec) uint64 {
		switch root {
		case RootPacket:
			return packetByIdx[idx].get(e.Pkt)
		case RootPerFlow:
			return stores.PerFlow.vals[e.FlowIdx][idx]
		case RootSubFlow:
			return stores.SubFlow.vals[e.SubIdx][idx]
		case RootControl:
			return stores.Control.vals[0][idx]
		case RootTemp:
			return e.Temp[idx&7]
		default:
			return 0
		}
	}
	set := func(root Root, idx int, e *model.Exec, v uint64) {
		switch root {
		case RootPacket:
			packetByIdx[idx].set(e.Pkt, v)
		case RootPerFlow:
			stores.PerFlow.vals[e.FlowIdx][idx] = v
		case RootSubFlow:
			stores.SubFlow.vals[e.SubIdx][idx] = v
		case RootControl:
			stores.Control.vals[0][idx] = v
		case RootTemp:
			e.Temp[idx&7] = v
		}
	}
	return &Env{Get: get, Set: set}
}

// FieldRefs translates a compiled action's access sets for one root
// into model FieldRefs: packet fields become wire-offset spans, stored
// roots become field references resolved against the module's Binding
// (its layouts must name the same fields; only per-flow and sub-flow
// state has a layout, so Build rejects a control-field reference).
func FieldRefs(accesses map[Root][]string) ([]model.FieldRef, error) {
	var refs []model.FieldRef
	for root, fields := range accesses {
		switch root {
		case RootPacket:
			for _, f := range fields {
				pf, ok := packetFields[f]
				if !ok {
					return nil, fmt.Errorf("nfc: unknown packet field %q", f)
				}
				refs = append(refs, model.Raw(model.BasePacket, pf.off, pf.size))
			}
		case RootPerFlow:
			refs = append(refs, model.Fields(model.BasePerFlow, fields...))
		case RootSubFlow:
			refs = append(refs, model.Fields(model.BaseSubFlow, fields...))
		case RootControl:
			refs = append(refs, model.Fields(model.BaseControl, fields...))
		case RootTemp:
			// Temp words live in the task's scratch line.
			refs = append(refs, model.Raw(model.BaseTemp, 0, 64))
		default:
			return nil, fmt.Errorf("nfc: unmappable root %v", root)
		}
	}
	return refs, nil
}

// ToAction assembles a runnable model.Action from a compiled NF-C
// action: the extracted read/write sets become the declared (and hence
// prefetched and charged) state spans, and the interpreter body becomes
// the Fn. Events are interned on b; emitting no event yields "done".
func ToAction(c *Compiled, env *Env, b *model.Builder) (model.Action, error) {
	reads, err := FieldRefs(c.Reads)
	if err != nil {
		return model.Action{}, err
	}
	writes, err := FieldRefs(c.Writes)
	if err != nil {
		return model.Action{}, err
	}
	evByRunIdx := make([]model.EventID, len(c.Events))
	for i, ev := range c.Events {
		evByRunIdx[i] = b.Event(ev)
	}
	kind := model.ActionData
	if len(c.Writes[RootControl]) > 0 {
		kind = model.ActionConfig
	}
	run := c.run
	return model.Action{
		Name:   c.Name,
		Kind:   kind,
		Cost:   c.Cost,
		Reads:  reads,
		Writes: writes,
		Fn: func(e *model.Exec) model.EventID {
			idx := run(e, env)
			if idx < 0 || idx >= len(evByRunIdx) {
				return model.EvDone
			}
			return evByRunIdx[idx]
		},
	}, nil
}
