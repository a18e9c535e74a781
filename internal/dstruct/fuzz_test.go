package dstruct

import (
	"slices"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Cuckoo op codes of the fuzz encoding: data is a sequence of
// (op, key) byte pairs. The op byte's low two bits are the op, its
// upper six an insert's value.
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
// map and returns how many inserts of absent keys the table refused.
// An installed key must refuse another value and accept its own. After
// every op the table must hold exactly the map: each entry findable by
// Lookup and by the stepwise lookup, the entry count equal to the map's size —
// which is what makes a refused insert a no-op and an accepted one
// unique.
func cuckooOps(t *testing.T, data []byte) (refused int) {
	t.Helper()
	c := newCuckoo(t, 8)
	want := make(map[uint64]int32)
	for i := 0; i+1 < len(data); i += 2 {
		key, val := uint64(data[i+1]), int32(data[i]/4)
		switch data[i] % 4 {
		case opInsert:
			err := c.Insert(key, val)
			if w, ok := want[key]; ok {
				if (err == nil) != (w == val) {
					t.Fatalf("op %d: Insert(%d, %d) on the key installed at %d: err %v", i/2, key, val, w, err)
				}
			} else if err == nil {
				want[key] = val
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
			c.Allocate() // a classifier attaches before it looks up
			v, ok := stepwise(c, key)
			if w, wok := want[key]; ok != wok || (ok && v != w) {
				t.Fatalf("op %d: stepwise lookup of %d = %d,%v, want %d,%v", i/2, key, v, ok, w, wok)
			}
		}
		if c.entries != len(want) {
			t.Fatalf("op %d: entries = %d, the model holds %d", i/2, c.entries, len(want))
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
// at its value, the refused key absent and the entry count where it was.
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
// free slot again: under another value it must be refused, under its
// own be a no-op, and in neither case be stored twice.
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
	before := c.entries
	if err := c.Insert(k, 200); err == nil {
		t.Fatal("Insert(k, 200) re-pointed k, installed at 0")
	}
	if err := c.Insert(k, 0); err != nil {
		t.Fatalf("re-inserting k at its own value: %v", err)
	}
	if c.entries != before {
		t.Fatalf("entries went %d -> %d on re-inserting an installed key", before, c.entries)
	}
	if v, ok := c.Lookup(k); !ok || v != 0 {
		t.Fatalf("Lookup(k) = %d,%v, want 0,true", v, ok)
	}
	if !c.Delete(k) {
		t.Fatal("Delete(k) = false")
	}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("k still present after Delete: it was stored twice")
	}
}

// mdiSessions decodes fuzz bytes into sessions with disjoint port
// ranges, at most 32 of them. Each session takes a header byte: its low
// three bits s choose the shape (0 no PDRs, 1 the whole port space,
// otherwise s-1 ranges, each read from two bytes: the gap after the
// previous range and the range's length, as the byte plus its low bits
// in 256-port units), bit 3 lists the ranges in descending order and
// the high nibble spaces the UE IPs, so that addresses between
// sessions miss.
func mdiSessions(data []byte) []testSession {
	var sessions []testSession
	ue := uint32(0x0a000000)
	for i := 0; i < len(data) && len(sessions) < 32; {
		h := data[i]
		i++
		ue += 1 + uint32(h>>4)
		s := testSession{UEIP: ue, Session: int32(len(sessions))}
		switch shape := h & 7; shape {
		case 0:
		case 1:
			s.PDRs = []PortRange{{Lo: 0, Hi: 65535}}
		default:
			next := 0
			for r := 0; r < int(shape)-1 && i+1 < len(data); r++ {
				gap, length := int(data[i]), int(data[i+1])
				i += 2
				lo := next + gap%8*256 + gap
				hi := lo + length%16*256 + length
				if lo > 65535 {
					break
				}
				hi = min(hi, 65535)
				s.PDRs = append(s.PDRs, PortRange{Lo: uint16(lo), Hi: uint16(hi)})
				next = hi + 1
			}
		}
		if h&8 != 0 {
			slices.Reverse(s.PDRs)
		}
		sessions = append(sessions, s)
	}
	return sessions
}

// bruteMatch scans the input rules for (ip, port). The PDR index it
// expects follows the tree's contract from the rules alone: the ranges
// of every session with a lower UE IP, plus the matched range's rank by
// Lo within its session.
func bruteMatch(sessions []testSession, ip uint32, port uint16) (session, pdr int32, ok bool) {
	for _, s := range sessions {
		if s.UEIP != ip {
			continue
		}
		for _, r := range s.PDRs {
			if r.Lo <= port && port <= r.Hi {
				for _, o := range sessions {
					if o.UEIP < ip {
						pdr += int32(len(o.PDRs))
					}
				}
				for _, o := range s.PDRs {
					if o.Lo < r.Lo {
						pdr++
					}
				}
				return s.Session, pdr, true
			}
		}
	}
	return 0, 0, false
}

// FuzzMDITree builds a tree from decoded sessions and checks, for probes
// around every session and every range edge, that the stepwise walk,
// Lookup and a scan of the input rules agree, that a walk takes at most
// Depth()+1 steps and that every address it stages lies in its region.
func FuzzMDITree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions := mdiSessions(data)
		if len(sessions) == 0 {
			return
		}
		tree, err := newMDITree(sessions)
		if err != nil {
			t.Fatalf("decoded sessions refused: %v", err)
		}
		rules := 0
		for _, s := range sessions {
			rules += len(s.PDRs)
		}
		if len(tree.rules) != rules || len(tree.sessions) != len(sessions) {
			t.Fatalf("rules, sessions = %d, %d; the input has %d, %d", len(tree.rules), len(tree.sessions), rules, len(sessions))
		}
		region := tree.region
		probe := func(ip uint32, port uint16) {
			wantS, wantP, wantOK := bruteMatch(sessions, ip, port)
			if s, p, ok := tree.Lookup(ip, port); s != wantS || p != wantP || ok != wantOK {
				t.Fatalf("Lookup(%#x, %d) = %d,%d,%v, the rules say %d,%d,%v", ip, port, s, p, ok, wantS, wantP, wantOK)
			}
			var cur model.Cursor
			tree.Begin(&cur, ip, port)
			for steps := 1; ; steps++ {
				if !region.Contains(cur.Addr, sim.LineBytes) {
					t.Fatalf("walk for (%#x, %d) staged %#x outside %s", ip, port, cur.Addr, region.Name)
				}
				if steps > tree.Depth()+1 {
					t.Fatalf("walk for (%#x, %d) passed %d steps at Depth %d", ip, port, steps, tree.Depth())
				}
				res := tree.WalkStep(&cur)
				if res == StepContinue {
					continue
				}
				ok := res == StepFound
				if ok != wantOK || ok && (SessionOf(&cur) != wantS || cur.Idx != wantP) {
					t.Fatalf("walk for (%#x, %d) = %d,%d,%v, the rules say %d,%d,%v", ip, port, SessionOf(&cur), cur.Idx, ok, wantS, wantP, wantOK)
				}
				return
			}
		}
		for _, s := range sessions {
			for _, ip := range []uint32{s.UEIP - 1, s.UEIP, s.UEIP + 1} {
				probe(ip, 0)
				probe(ip, 65535)
				for _, r := range s.PDRs {
					probe(ip, r.Lo-1)
					probe(ip, r.Lo)
					probe(ip, r.Hi)
					probe(ip, r.Hi+1)
				}
			}
		}
	})
}
