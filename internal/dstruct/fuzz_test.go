package dstruct

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/model"
)

// Cuckoo op codes of the fuzz encoding: data is a sequence of
// (op, key) byte pairs, op taken modulo four.
const (
	opInsert = iota
	opDelete
	opLookup
	opStepwise
)

// stepwise runs the Begin/CheckStep state machine to completion.
func stepwise(c *Cuckoo, key uint64) (int32, bool) {
	var cur model.Cursor
	c.Begin(key, &cur)
	for !c.CheckStep(&cur) {
	}
	return cur.Idx, cur.Ok
}

// cuckooOps replays data against a 16-slot table in lockstep with a Go
// map and returns how many inserts the table refused. After every op
// the table must hold exactly the map: each entry findable by Lookup
// and by the stepwise lookup, Len equal to the map's size — which is
// what makes a refused insert a no-op and an accepted one unique.
func cuckooOps(t *testing.T, data []byte) (refused int) {
	t.Helper()
	c := newCuckoo(t, 8)
	want := make(map[uint64]int32)
	for i := 0; i+1 < len(data); i += 2 {
		key, val := uint64(data[i+1]), int32(i)
		switch data[i] % 4 {
		case opInsert:
			if err := c.Insert(key, val); err == nil {
				want[key] = val
			} else if _, ok := want[key]; ok {
				t.Fatalf("op %d: updating installed key %d failed: %v", i/2, key, err)
			} else {
				refused++
			}
		case opDelete:
			_, ok := want[key]
			if c.Delete(key) != ok {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i/2, key, !ok, ok)
			}
			delete(want, key)
		case opLookup:
			v, ok := c.Lookup(key)
			if w, wok := want[key]; ok != wok || (ok && v != w) {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, want %d,%v", i/2, key, v, ok, w, wok)
			}
		case opStepwise:
			v, ok := stepwise(c, key)
			if w, wok := want[key]; ok != wok || (ok && v != w) {
				t.Fatalf("op %d: stepwise lookup of %d = %d,%v, want %d,%v", i/2, key, v, ok, w, wok)
			}
		}
		if c.Len() != len(want) {
			t.Fatalf("op %d: Len = %d, the model holds %d", i/2, c.Len(), len(want))
		}
		for k, w := range want {
			if v, ok := c.Lookup(k); !ok || v != w {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, want %d,true", i/2, k, v, ok, w)
			}
			if v, ok := stepwise(c, k); !ok || v != w {
				t.Fatalf("op %d: stepwise lookup of %d = %d,%v, want %d,true", i/2, k, v, ok, w)
			}
		}
	}
	return refused
}

func FuzzCuckooOps(f *testing.F) {
	f.Add([]byte{opInsert, 1, opLookup, 1, opStepwise, 1, opDelete, 1, opLookup, 1})
	f.Fuzz(func(t *testing.T, data []byte) { cuckooOps(t, data) })
}

// TestCuckooFailedInsertChangesNothing fills the 16-slot table past
// what it can hold: every refused insert must leave each installed key
// at its value, the refused key absent and Len where it was.
func TestCuckooFailedInsertChangesNothing(t *testing.T) {
	var ops []byte
	for k := 0; k < 40; k++ {
		ops = append(ops, opInsert, byte(k))
	}
	if cuckooOps(t, ops) == 0 {
		t.Fatal("40 keys fit a 16-slot table: the failure path never ran")
	}
}

// TestCuckooReinsertAfterDisplacement re-inserts a key that a
// displacement moved to its second bucket, once its first bucket has a
// free slot again: it must be updated where it lives, not stored twice.
func TestCuckooReinsertAfterDisplacement(t *testing.T) {
	c := newCuckoo(t, 8)
	b1 := func(k uint64) uint64 { return hash1(k) & c.mask }
	b2 := func(k uint64) uint64 { return hash2(k) & c.mask }
	// pick returns the first n keys from 1 up that satisfy ok.
	pick := func(n int, ok func(k uint64) bool) []uint64 {
		var keys []uint64
		for k := uint64(1); len(keys) < n; k++ {
			if ok(k) {
				keys = append(keys, k)
			}
		}
		return keys
	}
	// k sits in slot 0 of bucket B and has an empty alternate D; B's
	// other slots and all of bucket C are then filled, so inserting y
	// (candidates B and C) finds both full and its first kick evicts k.
	const B, C, D = 0, 1, 2
	k := pick(1, func(k uint64) bool { return b1(k) == B && b2(k) == D })[0]
	inB := pick(3, func(x uint64) bool { return x != k && b1(x) == B && b2(x) != D })
	inC := pick(4, func(x uint64) bool { return b1(x) == C && b2(x) != D })
	y := pick(1, func(x uint64) bool { return b1(x) == B && b2(x) == C && x != inB[0] && x != inB[1] && x != inB[2] })[0]
	for i, x := range append(append([]uint64{k}, inB...), inC...) {
		if err := c.Insert(x, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert(y, 100); err != nil {
		t.Fatal(err)
	}
	if d := &c.buckets[D]; !d.used[0] || d.keys[0] != k {
		t.Fatal("setup: k was not displaced to its second bucket")
	}
	if !c.Delete(inB[0]) {
		t.Fatal("setup: filler missing")
	}
	before := c.Len()
	if err := c.Insert(k, 200); err != nil {
		t.Fatal(err)
	}
	if c.Len() != before {
		t.Fatalf("Len went %d -> %d on re-inserting an installed key", before, c.Len())
	}
	if v, ok := c.Lookup(k); !ok || v != 200 {
		t.Fatalf("Lookup(k) = %d,%v, want 200,true", v, ok)
	}
	if !c.Delete(k) {
		t.Fatal("Delete(k) = false")
	}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("k still present after Delete: it was stored twice")
	}
}
