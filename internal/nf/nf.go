// Package nf holds the building blocks shared by the network function
// implementations: the stepwise five-tuple classifier module (the
// granularly decomposed cuckoo lookup of the paper's Listing 1), the
// FlowTable skeleton the five-tuple NFs embed, state construction
// helpers, and the common NFEvent vocabulary.
//
// Each concrete NF (subpackages upf, amf, nat, lb, fw, monitor)
// contributes modules to a model.Builder through an Attach method, so
// NFs compose into service function chains exactly as §IV-B describes:
// the exit transition of one NF becomes the entry of the next.
package nf

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// Shared NFEvent names used across the NF library.
const (
	// EvHashed fires when get_key has staged the first candidate bucket.
	EvHashed = "hashed"
	// EvProbe2 fires when the first bucket missed and the second
	// candidate is staged (check_failure in Listing 1).
	EvProbe2 = "check_failure"
	// EvMatchSuccess fires when the classifier located per-flow state.
	EvMatchSuccess = "MATCH_SUCCESS"
	// EvMatchFail fires when both buckets miss.
	EvMatchFail = "MATCH_FAIL"
	// EvForward fires when a data action passes the packet on.
	EvForward = "forward"
	// EvDrop fires when the packet is discarded.
	EvDrop = "drop"
)

// PacketHeaderSpan is the packet-state span covering the Ethernet, IPv4
// and transport-port bytes the classifiers and rewriters touch.
func PacketHeaderSpan() model.FieldRef {
	return model.Raw(model.BasePacket, 0, pkt.EthLen+pkt.IPv4Len+4)
}

// BuildStates reserves a per-flow pool for maxFlows records with the
// given natural layout plus a one-line control region, and returns the
// binding of the two.
func BuildStates(as *mem.AddressSpace, name string, fields []mem.Field, maxFlows int) (*model.Binding, error) {
	layout, err := mem.NewLayout(fields...)
	if err != nil {
		return nil, fmt.Errorf("nf: %s layout: %w", name, err)
	}
	pool, err := mem.NewPool(as, name+".perflow", layout.Size(), maxFlows)
	if err != nil {
		return nil, fmt.Errorf("nf: %s pool: %w", name, err)
	}
	ctrlBase := as.Reserve(64, 0)
	return &model.Binding{
		PerFlow:       pool,
		PerFlowLayout: layout,
		Control:       mem.Region{Name: name + ".control", Base: ctrlBase, Size: 64},
	}, nil
}

// Classifier is the granularly decomposed five-tuple cuckoo classifier:
// three control states (get_key, check_1, check_2) that together locate
// the per-flow index for a packet, with every bucket probe's address
// staged one step ahead for prefetching.
type Classifier struct {
	// Table is the backing cuckoo hash table.
	Table *dstruct.Cuckoo
	// Module is the module name the classifier registers under.
	Module string
	// KeyFn extracts the match key from the packet; defaults to the
	// five-tuple hash.
	KeyFn func(p *pkt.Packet) uint64
}

// DefaultKey is the standard five-tuple match key.
func DefaultKey(p *pkt.Packet) uint64 { return p.Tuple.Hash() }

// Attach registers the classifier's module and control states on b.
// On success control transfers to successTarget with the task's
// FlowIdx set; on failure to missTarget. It returns the entry state
// name ("module.get_key"). It allocates the table's host buckets, if
// no insert has yet.
func (c *Classifier) Attach(b *model.Builder, successTarget, missTarget string) string {
	keyFn := c.KeyFn
	if keyFn == nil {
		keyFn = DefaultKey
	}
	table := c.Table
	table.Allocate()
	m := c.Module

	evHashed := b.Event(EvHashed)
	evProbe2 := b.Event(EvProbe2)
	evSuccess := b.Event(EvMatchSuccess)
	evFail := b.Event(EvMatchFail)

	b.AddModule(m, model.Binding{})

	b.AddState(m, "get_key", model.Action{
		Name:  "get_key",
		Cost:  25,
		Reads: []model.FieldRef{PacketHeaderSpan()},
		Fn: func(e *model.Exec) model.EventID {
			e.Key = keyFn(e.Pkt)
			table.Begin(e.Key, &e.Cur)
			return evHashed
		},
	})

	check := func(e *model.Exec) model.EventID {
		done := table.CheckStep(&e.Cur)
		switch {
		case !done:
			return evProbe2
		case e.Cur.Ok:
			e.FlowIdx = e.Cur.Idx
			return evSuccess
		default:
			return evFail
		}
	}
	for _, state := range []string{"check_1", "check_2"} {
		b.AddState(m, state, model.Action{
			Name:  state,
			Cost:  12,
			Reads: []model.FieldRef{model.Dynamic(64)},
			Fn:    check,
			Touch: func(e *model.Exec) { table.TouchStep(&e.Cur) },
		})
	}

	b.AddTransition(m+".get_key", EvHashed, m+".check_1")
	b.AddTransition(m+".check_1", EvProbe2, m+".check_2")
	b.AddTransition(m+".check_1", EvMatchSuccess, successTarget)
	b.AddTransition(m+".check_1", EvMatchFail, missTarget)
	b.AddTransition(m+".check_2", EvMatchSuccess, successTarget)
	b.AddTransition(m+".check_2", EvMatchFail, missTarget)
	return m + ".get_key"
}
