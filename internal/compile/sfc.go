// Package compile implements the GuNFu compiler of the paper's §VI: it
// lowers NF/SFC specifications onto the model.Builder, and applies two
// of the compilation optimizations granular decomposition enables —
// redundant matching removal (MR) for chained NFs and cache-conscious
// data packing (DP) of per-flow state layouts — to chains of Go NFs
// (BuildSFC with SFCOptions, FuseStates). MR reuses the head's flow
// index in every NF after it, so BuildSFC checks that the chain shares
// one flow-index space: every member's MaxFlows equals the head's.
//
// FromSpec compiles the paper's programming model (Listings 1–4): a
// StatefulClassifier module contributes only its name and category,
// because its control states and match state are nf.Classifier's; a
// StatefulNF module contributes its transitions and per-flow states,
// and its actions come from NF-C. FromSpec applies no optimizations.
//
// The paper's third optimization, redundant prefetch removal (PRR), is
// not implemented: under interleaving the prefetches it drops are the
// ones re-fetching lines other NFTasks evicted, so it cost throughput
// (EXPERIMENTS.md, Known deviation 2).
package compile

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// Chainable is a network function that can contribute its modules to a
// composed service function chain. The four data-center NFs (LB, NAT,
// NM, FW) all implement it.
type Chainable interface {
	// Name returns the instance name (unique within a chain).
	Name() string
	// Attach registers the full NF (classifier + data path), exiting
	// toward next, and returns its entry state. A non-nil onAlloc runs
	// after each first packet the NF installs, with the packet's tuple
	// and new flow index, and an error from it drops the packet; the
	// head of a chain compiled with redundant matching removal installs
	// the downstream records with it.
	Attach(b *model.Builder, next string, onAlloc func(pkt.FiveTuple, int32) error) string
	// AttachData registers only the data path, relying on a FlowIdx set
	// by an upstream classifier — the post-MR form.
	AttachData(b *model.Builder, next string) string
	// MaxFlows returns the size of the NF's flow-index space: its
	// records, per-flow pool and match table.
	MaxFlows() int
	// AddRecord writes the record for tuple at index idx and defers the
	// classifier entry until a classifier attaches (Attach), which under
	// redundant matching removal a downstream NF's never does.
	AddRecord(tuple pkt.FiveTuple, idx int32) error
	// Translate returns the tuple as the NF emits it for flow idx (the
	// identity for non-rewriting NFs). Chain population uses it so each
	// NF's match table is keyed on the packet as it arrives there.
	Translate(tuple pkt.FiveTuple, idx int32) pkt.FiveTuple
}

// SFCOptions selects the compilation optimizations for a chain.
type SFCOptions struct {
	// RemoveRedundantMatching keeps only the first NF's classifier and
	// reuses its match result for every subsequent NF. All NFs must key
	// on the five-tuple and share one flow-index space: BuildSFC refuses
	// a chain whose members' MaxFlows differ.
	RemoveRedundantMatching bool
	// RemoveRedundantPrefetches is ignored: the redundant prefetch
	// removal pass it selected was retired. The field is kept only
	// because bench/packet.go still sets it; delete both together.
	RemoveRedundantPrefetches bool
}

// BuildSFC composes the chain into one program, NFs in traversal order.
func BuildSFC(name string, chain []Chainable, opts SFCOptions) (*model.Program, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("compile: empty chain")
	}
	seen := make(map[string]bool, len(chain))
	for _, c := range chain {
		if seen[c.Name()] {
			return nil, fmt.Errorf("compile: duplicate NF name %q in chain", c.Name())
		}
		seen[c.Name()] = true
		if opts.RemoveRedundantMatching && c.MaxFlows() != chain[0].MaxFlows() {
			return nil, fmt.Errorf("compile: redundant matching removal: %s has %d flows, the head %s has %d: members must share one flow-index space",
				c.Name(), c.MaxFlows(), chain[0].Name(), chain[0].MaxFlows())
		}
	}

	b := model.NewBuilder(name)
	next := model.EndName
	for i := len(chain) - 1; i >= 0; i-- {
		switch {
		case !opts.RemoveRedundantMatching:
			next = chain[i].Attach(b, next, nil)
		case i > 0:
			// Downstream NFs reuse the head classifier's match result.
			next = chain[i].AttachData(b, next)
		default:
			// They have no first-packet path either: the head's first
			// packets install their records.
			next = chain[0].Attach(b, next, func(tuple pkt.FiveTuple, idx int32) error {
				return addRecords(chain[1:], chain[0].Translate(tuple, idx), idx)
			})
		}
	}
	b.SetStart(next)
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("compile: %s: %w", name, err)
	}
	return prog, nil
}

// PopulateFlows installs the (tuple → index) assignment into every NF
// of the chain, establishing the shared flow index space that redundant
// matching removal relies on. Every member, the head included, gets
// AddRecord: its classifier entries are built only if BuildSFC attaches
// its classifier (the head's always, no other's under MR). Each NF is
// keyed on the tuple as packets reach it: the flow's original tuple
// transformed by every upstream NF's rewrite. A key two flows share
// fails the build of the classifier that reads it, not PopulateFlows.
func PopulateFlows(chain []Chainable, tuples []pkt.FiveTuple) error {
	for i, tuple := range tuples {
		if err := addRecords(chain, tuple, int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// addRecords writes flow idx's record into every NF of members, each
// keyed on tuple (as it reaches members[0]) rewritten by every NF's
// Translate before it.
func addRecords(members []Chainable, tuple pkt.FiveTuple, idx int32) error {
	for _, c := range members {
		if err := c.AddRecord(tuple, idx); err != nil {
			return fmt.Errorf("compile: populating %s flow %d: %w", c.Name(), idx, err)
		}
		tuple = c.Translate(tuple, idx)
	}
	return nil
}
