// Package dstruct implements the matching structures the paper's NFs
// classify flows with: a 4-way bucketized cuckoo hash table and a
// multidimensional interval (MDI) tree.
//
// Both structures are *stepwise*: lookups are resumable state machines
// driven through a model.Cursor, with each step touching exactly one
// cache line whose address is known before the step runs. That is the
// granular decomposition of Listing 1 in the paper (get_key → hash_1 →
// check_1 → hash_2 → check_2) and it is what lets the interleaved
// runtime prefetch the next bucket or tree node and switch to another
// function stream instead of stalling on the pointer chase.
//
// The structures keep their real contents in flat Go slices (no
// per-node allocations, GC-friendly) and expose one simulated address
// per bucket/node so the cache simulator sees the true footprint.
package dstruct

import (
	"fmt"
	"math/bits"

	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// slotsPerBucket is the cuckoo bucket width. Four 14-byte slots fit one
// 64-byte cache line, so probing a bucket costs exactly one line.
const slotsPerBucket = 4

// maxKicks bounds the cuckoo insertion displacement chain.
const maxKicks = 500

// Cuckoo is a 4-way bucketized cuckoo hash table mapping uint64 keys to
// int32 flow indexes, the per-flow pool entry a classifier hands its
// NF. Each bucket occupies one simulated cache line.
type Cuckoo struct {
	region mem.Region
	mask   uint64
	// buckets is the host copy of the table. It is nil until the first
	// Insert or Allocate, so a table no classifier reads keeps no host
	// bytes.
	buckets []bucket
	entries int
}

// bucket is one 4-way bucket, padded to 64 bytes so a probe touches a
// single host cache line — the same unit of locality the simulated
// layout charges for.
type bucket struct {
	keys [slotsPerBucket]uint64
	vals [slotsPerBucket]int32
	used [slotsPerBucket]bool
	_    [12]byte
}

// NewCuckoo builds a table able to hold at least capacity entries at a
// conservative load factor, drawing simulated addresses from as. The
// host buckets are allocated on first need (Insert, Allocate).
func NewCuckoo(as *mem.AddressSpace, name string, capacity int) (*Cuckoo, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dstruct: cuckoo %s: capacity must be positive", name)
	}
	// Size for a 50% load factor so displacement chains stay short.
	buckets := nextPow2(uint64(capacity) / (slotsPerBucket / 2))
	if buckets < 4 {
		buckets = 4
	}
	base := as.Reserve(buckets*sim.LineBytes, sim.LineBytes)
	return &Cuckoo{
		region: mem.Region{Name: name, Base: base, Size: buckets * sim.LineBytes},
		mask:   buckets - 1,
	}, nil
}

// Allocate makes the host buckets of a table that has none yet. Insert
// does so itself; a classifier calls it when it attaches, because the
// stepwise lookup (Begin, TouchStep, CheckStep) never tests for a
// table without buckets.
func (c *Cuckoo) Allocate() {
	if c.buckets == nil {
		c.buckets = make([]bucket, c.mask+1)
	}
}

func nextPow2(v uint64) uint64 {
	if v < 2 {
		return 2
	}
	return 1 << uint(64-bits.LeadingZeros64(v-1))
}

// hash1 and hash2 are two independent mixes of the key; bucket indexes
// derive from them so both candidates are computable from the key alone.
func hash1(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func hash2(key uint64) uint64 {
	h := (key ^ 0xdeadbeefcafef00d) * 0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

// BucketAddr returns the simulated address of bucket b.
func (c *Cuckoo) BucketAddr(b uint64) uint64 {
	return c.region.Base + (b&c.mask)*sim.LineBytes
}

// Region returns the table's simulated address region.
func (c *Cuckoo) Region() mem.Region { return c.region }

// Insert stores key→val, displacing entries as needed. It owns the
// install rule "one key, one flow": a key already present (in either
// candidate bucket) under another value is refused, naming the key and
// both values, instead of re-pointing the installed flow's entry;
// re-inserting its own value is a no-op. On error the table is exactly
// as it was before the call. It is a control-plane operation (session
// establishment) and is not charged to the cache simulator.
func (c *Cuckoo) Insert(key uint64, val int32) error {
	c.Allocate()
	if bkt, s := c.find(key); bkt != nil {
		if cur := bkt.vals[s]; cur != val {
			return fmt.Errorf("dstruct: cuckoo %s: flow index %d: key %#016x is already installed at flow index %d",
				c.region.Name, val, key, cur)
		}
		return nil
	}
	b1 := hash1(key) & c.mask
	if c.place(key, val, b1) || c.place(key, val, hash2(key)&c.mask) {
		return nil
	}
	return c.displace(key, val, b1)
}

// displace runs the displacement chain for a key both of whose buckets
// are full, starting from bucket b. The buckets it evicted from are
// kept so that a chain that runs out of kicks is unwound, newest swap
// first, instead of dropping whichever installed entry it held last.
func (c *Cuckoo) displace(key uint64, val int32, b uint64) error {
	var path [maxKicks]uint64
	curKey, curVal := key, val
	swap := func(kick int) {
		// Evict a pseudo-random slot of the bucket (rotate by kick for
		// determinism without a global RNG).
		bkt, slot := &c.buckets[path[kick]], kick%slotsPerBucket
		bkt.keys[slot], curKey = curKey, bkt.keys[slot]
		bkt.vals[slot], curVal = curVal, bkt.vals[slot]
	}
	for kick := 0; kick < maxKicks; kick++ {
		path[kick] = b
		swap(kick)
		// The evicted entry goes to its alternate bucket.
		b1, b2 := hash1(curKey)&c.mask, hash2(curKey)&c.mask
		if b == b1 {
			b = b2
		} else {
			b = b1
		}
		if c.place(curKey, curVal, b) {
			return nil
		}
	}
	for kick := maxKicks - 1; kick >= 0; kick-- {
		swap(kick)
	}
	return fmt.Errorf("dstruct: cuckoo %s: insertion failed after %d kicks (load %d/%d)",
		c.region.Name, maxKicks, c.entries, len(c.buckets)*slotsPerBucket)
}

// find returns the bucket and slot holding key, or a nil bucket; a
// table without buckets holds nothing.
func (c *Cuckoo) find(key uint64) (*bucket, int) {
	if c.buckets == nil {
		return nil, 0
	}
	for _, b := range [2]uint64{hash1(key) & c.mask, hash2(key) & c.mask} {
		bkt := &c.buckets[b]
		for s := 0; s < slotsPerBucket; s++ {
			if bkt.used[s] && bkt.keys[s] == key {
				return bkt, s
			}
		}
	}
	return nil, 0
}

// place stores key→val in a free slot of bucket b, if it has one.
func (c *Cuckoo) place(key uint64, val int32, b uint64) bool {
	bkt := &c.buckets[b]
	for s := 0; s < slotsPerBucket; s++ {
		if !bkt.used[s] {
			bkt.used[s] = true
			bkt.keys[s] = key
			bkt.vals[s] = val
			c.entries++
			return true
		}
	}
	return false
}

// Delete removes key, reporting whether it was present.
func (c *Cuckoo) Delete(key uint64) bool {
	bkt, s := c.find(key)
	if bkt == nil {
		return false
	}
	bkt.used[s] = false
	c.entries--
	return true
}

// Lookup is the un-charged control-plane lookup (tests, management).
func (c *Cuckoo) Lookup(key uint64) (int32, bool) {
	if bkt, s := c.find(key); bkt != nil {
		return bkt.vals[s], true
	}
	return 0, false
}

// Begin stages a stepwise lookup: it computes the first candidate
// bucket and parks its address in the cursor, so the runtime can
// prefetch it before CheckStep executes. This is the hash_1 state of
// Listing 1 (get_key has already staged the key).
func (c *Cuckoo) Begin(key uint64, cur *model.Cursor) {
	cur.Reset()
	cur.Stage = 1
	cur.Aux[0] = key
	cur.Addr = c.BucketAddr(hash1(key) & c.mask)
}

// bucketAt returns the Go-side bucket behind the cursor's staged address.
func (c *Cuckoo) bucketAt(cur *model.Cursor) *bucket {
	b := (cur.Addr - c.region.Base) / sim.LineBytes
	return &c.buckets[b&c.mask]
}

// TouchStep prefetches, on the host, the bucket CheckStep will probe at
// the cursor — the Go-side twin of the simulated fetch of cur.Addr.
func (c *Cuckoo) TouchStep(cur *model.Cursor) {
	hostmem.Prefetch(c.bucketAt(cur))
}

// CheckStep probes the bucket at the cursor (whose line the runtime has
// already charged/prefetched). On a first-bucket miss it stages the
// second candidate and returns done=false — the check_failure →
// hash_2 → check_2 path of Listing 1. After the second probe done is
// true and cur.Ok/cur.Idx carry the result.
func (c *Cuckoo) CheckStep(cur *model.Cursor) (done bool) {
	key := cur.Aux[0]
	bkt := c.bucketAt(cur)
	for s := 0; s < slotsPerBucket; s++ {
		if bkt.used[s] && bkt.keys[s] == key {
			cur.Ok = true
			cur.Idx = bkt.vals[s]
			return true
		}
	}
	if cur.Stage == 1 {
		cur.Stage = 2
		cur.Addr = c.BucketAddr(hash2(key) & c.mask)
		return false
	}
	cur.Ok = false
	cur.Idx = -1
	return true
}
