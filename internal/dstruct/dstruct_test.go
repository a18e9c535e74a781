package dstruct

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

func newCuckoo(t *testing.T, capacity int) *Cuckoo {
	t.Helper()
	c, err := NewCuckoo(mem.NewAddressSpace(), "t", capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCuckooInsertLookup(t *testing.T) {
	c := newCuckoo(t, 1000)
	for i := 0; i < 1000; i++ {
		if err := c.Insert(uint64(i)*7919+1, int32(i)); err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
	}
	if c.entries != 1000 {
		t.Fatalf("entries = %d, want 1000", c.entries)
	}
	for i := 0; i < 1000; i++ {
		v, ok := c.Lookup(uint64(i)*7919 + 1)
		if !ok || v != int32(i) {
			t.Fatalf("Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := c.Lookup(999999999); ok {
		t.Fatal("lookup of absent key succeeded")
	}
}

// TestCuckooRefusesOtherValue: Insert refuses a key installed under
// another value, naming the key and both values, and leaves the entry
// as it was; re-inserting the installed value is a no-op.
func TestCuckooRefusesOtherValue(t *testing.T) {
	c := newCuckoo(t, 10)
	if err := c.Insert(42, 1); err != nil {
		t.Fatal(err)
	}
	err := c.Insert(42, 2)
	if err == nil {
		t.Fatal("Insert(42, 2) re-pointed the key installed at 1")
	}
	for _, w := range []string{"0x000000000000002a", "flow index 1", "flow index 2"} {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not name %q", err, w)
		}
	}
	if err := c.Insert(42, 1); err != nil {
		t.Fatalf("re-inserting the installed value: %v", err)
	}
	if c.entries != 1 {
		t.Fatalf("entries = %d, want 1", c.entries)
	}
	if v, ok := c.Lookup(42); !ok || v != 1 {
		t.Fatalf("Lookup = %d,%v, want 1,true", v, ok)
	}
}

func TestCuckooDelete(t *testing.T) {
	c := newCuckoo(t, 10)
	if err := c.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if !c.Delete(7) {
		t.Fatal("Delete(7) = false")
	}
	if c.Delete(7) {
		t.Fatal("second Delete(7) = true")
	}
	if _, ok := c.Lookup(7); ok {
		t.Fatal("deleted key still present")
	}
	if c.entries != 0 {
		t.Fatalf("entries = %d", c.entries)
	}
}

func TestCuckooCapacityError(t *testing.T) {
	if _, err := NewCuckoo(mem.NewAddressSpace(), "t", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestCuckooBucketsOnFirstNeed: a new table keeps no host buckets, and
// Lookup and Delete on it miss, until Insert or Allocate makes them; an
// Allocate after that keeps what the table holds.
func TestCuckooBucketsOnFirstNeed(t *testing.T) {
	c := newCuckoo(t, 1000)
	if _, ok := c.Lookup(1); ok || c.Delete(1) || c.entries != 0 || c.buckets != nil {
		t.Fatalf("empty table: found key 1 or holds buckets (%d)", len(c.buckets))
	}
	if err := c.Insert(1, 7); err != nil {
		t.Fatal(err)
	}
	if len(c.buckets) != int(c.mask+1) {
		t.Fatalf("Insert made %d buckets, want %d", len(c.buckets), int(c.mask+1))
	}
	c.Allocate()
	if v, ok := c.Lookup(1); !ok || v != 7 {
		t.Fatalf("Allocate after Insert lost key 1: %d, %v", v, ok)
	}
	a := newCuckoo(t, 1000)
	a.Allocate()
	var cur model.Cursor
	a.Begin(1, &cur)
	for !a.CheckStep(&cur) {
	}
	if cur.Ok || len(a.buckets) != int(a.mask+1) {
		t.Fatalf("allocated empty table: stepwise hit %v, %d buckets", cur.Ok, len(a.buckets))
	}
}

func TestCuckooStepwiseLookup(t *testing.T) {
	c := newCuckoo(t, 100)
	for i := 0; i < 100; i++ {
		if err := c.Insert(uint64(i)+1, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		var cur model.Cursor
		c.Begin(uint64(i)+1, &cur)
		if !c.Region().Contains(cur.Addr, sim.LineBytes) {
			t.Fatalf("cursor addr %#x outside table region", cur.Addr)
		}
		steps := 0
		for {
			done := c.CheckStep(&cur)
			steps++
			if done {
				break
			}
			if steps > 2 {
				t.Fatal("cuckoo lookup took more than 2 probes")
			}
		}
		if !cur.Ok || cur.Idx != int32(i) {
			t.Fatalf("stepwise Lookup(%d) = %d,%v", i+1, cur.Idx, cur.Ok)
		}
	}
}

func TestCuckooStepwiseMiss(t *testing.T) {
	c := newCuckoo(t, 10)
	if err := c.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	var cur model.Cursor
	c.Begin(424242, &cur)
	done := c.CheckStep(&cur)
	if !done {
		done = c.CheckStep(&cur)
	}
	if !done || cur.Ok || cur.Idx != -1 {
		t.Fatalf("miss: done=%v ok=%v idx=%d", done, cur.Ok, cur.Idx)
	}
}

func TestCuckooBucketAddrAligned(t *testing.T) {
	c := newCuckoo(t, 64)
	for b := uint64(0); b <= c.mask; b++ {
		if c.BucketAddr(b)%sim.LineBytes != 0 {
			t.Fatalf("bucket %d addr %#x not line aligned", b, c.BucketAddr(b))
		}
	}
}

// Property: any set of distinct keys round-trips through insert/lookup,
// and the stepwise lookup agrees with the direct one.
func TestCuckooProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		seen := make(map[uint64]bool, len(keys))
		distinct := keys[:0]
		for _, k := range keys {
			if k == 0 || seen[k] {
				continue
			}
			seen[k] = true
			distinct = append(distinct, k)
			if len(distinct) == 200 {
				break
			}
		}
		c, err := NewCuckoo(mem.NewAddressSpace(), "p", 512)
		if err != nil {
			return false
		}
		for i, k := range distinct {
			if err := c.Insert(k, int32(i)); err != nil {
				return false
			}
		}
		for i, k := range distinct {
			v, ok := c.Lookup(k)
			if !ok || v != int32(i) {
				return false
			}
			var cur model.Cursor
			c.Begin(k, &cur)
			for !c.CheckStep(&cur) {
			}
			if !cur.Ok || cur.Idx != int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// testSession is one session's rule set as a test writes it: the
// header fields and the session's own ranges.
type testSession struct {
	UEIP    uint32
	Session int32
	PDRs    []PortRange
}

// flat lays test sessions out as NewMDITree takes them: one header per
// session and every session's ranges back to back in one array.
func flat(sessions []testSession) ([]SessionRules, []PortRange) {
	headers := make([]SessionRules, len(sessions))
	var ranges []PortRange
	for i, s := range sessions {
		headers[i] = SessionRules{UEIP: s.UEIP, Session: s.Session, Rules: int32(len(s.PDRs))}
		ranges = append(ranges, s.PDRs...)
	}
	return headers, ranges
}

// newMDITree builds a tree from test sessions on a fresh address space.
func newMDITree(sessions []testSession) (*MDITree, error) {
	headers, ranges := flat(sessions)
	return NewMDITree(mem.NewAddressSpace(), "t", headers, ranges)
}

func sessionsFixture(n, pdrs int) []testSession {
	out := make([]testSession, 0, n)
	span := 65536 / pdrs
	for i := 0; i < n; i++ {
		s := testSession{UEIP: 0x0a000000 + uint32(i), Session: int32(i)}
		for p := 0; p < pdrs; p++ {
			lo := p * span
			hi := lo + span - 1
			if p == pdrs-1 {
				hi = 65535
			}
			s.PDRs = append(s.PDRs, PortRange{Lo: uint16(lo), Hi: uint16(hi)})
		}
		out = append(out, s)
	}
	return out
}

// nodes returns t's node count: one per rule and one per session.
func nodes(t *MDITree) int { return len(t.rules) + len(t.sessions) }

func TestMDITreeLookup(t *testing.T) {
	sessions := sessionsFixture(100, 4)
	tree, err := newMDITree(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.sessions) != 100 {
		t.Fatalf("%d sessions, want 100", len(tree.sessions))
	}
	if nodes(tree) != 100+100*4 {
		t.Fatalf("%d nodes, want 500", nodes(tree))
	}
	for i := 0; i < 100; i++ {
		for p := 0; p < 4; p++ {
			port := uint16(p*16384 + 100)
			sess, pdr, ok := tree.Lookup(0x0a000000+uint32(i), port)
			if !ok {
				t.Fatalf("Lookup session %d port %d missed", i, port)
			}
			if sess != int32(i) || pdr != int32(i*4+p) {
				t.Fatalf("Lookup = sess %d pdr %d, want %d/%d", sess, pdr, i, i*4+p)
			}
		}
	}
}

// TestMDITreeUnsortedInput: a tree built from shuffled sessions and
// shuffled ranges is the sorted fixture's tree — as many nodes, the
// same answer for every lookup, rule indexes included, since they
// follow UE IP and Lo order rather than input order — and the caller's
// headers and ranges keep their shuffled order.
func TestMDITreeUnsortedInput(t *testing.T) {
	sorted, err := newMDITree(sessionsFixture(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shuffled := sessionsFixture(64, 8)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, s := range shuffled {
		rng.Shuffle(len(s.PDRs), func(i, j int) { s.PDRs[i], s.PDRs[j] = s.PDRs[j], s.PDRs[i] })
	}
	headers, ranges := flat(shuffled)
	wantHeaders, wantRanges := slices.Clone(headers), slices.Clone(ranges)
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", headers, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if nodes(tree) != nodes(sorted) {
		t.Fatalf("shuffled input built %d nodes, sorted %d", nodes(tree), nodes(sorted))
	}
	for ue := uint32(0x0a000000); ue <= 0x0a000000+64; ue++ {
		for port := 0; port < 65536; port += 1021 {
			gs, gp, gok := tree.Lookup(ue, uint16(port))
			ws, wp, wok := sorted.Lookup(ue, uint16(port))
			if gs != ws || gp != wp || gok != wok {
				t.Fatalf("Lookup(%#x, %d) = %d,%d,%v from shuffled input, %d,%d,%v from sorted", ue, port, gs, gp, gok, ws, wp, wok)
			}
		}
	}
	if !slices.Equal(headers, wantHeaders) || !slices.Equal(ranges, wantRanges) {
		t.Fatal("NewMDITree reordered the caller's unsorted headers or ranges")
	}
}

// TestMDITreeAdoptsSortedRanges: sorted input is built in place — the
// tree's rule nodes are the caller's ranges array, each session's run
// permuted into preorder — so building allocates no copy of the rules.
func TestMDITreeAdoptsSortedRanges(t *testing.T) {
	headers, ranges := flat(sessionsFixture(8, 7))
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", headers, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if &tree.rules[0] != &ranges[0] || len(tree.rules) != len(ranges) {
		t.Fatal("sorted ranges were copied, not adopted")
	}
	// A run of 7 sorted ranges r0..r6 lies in preorder as r3 r1 r0 r2 r5 r4 r6.
	_, want := flat(sessionsFixture(1, 7))
	for i, k := range []int{3, 1, 0, 2, 5, 4, 6} {
		if ranges[7+i] != want[k] {
			t.Fatalf("session 1's node %d holds %v, want sorted range %d %v", i, ranges[7+i], k, want[k])
		}
	}
}

func TestMDITreeMiss(t *testing.T) {
	tree, err := newMDITree(sessionsFixture(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.Lookup(0x0b000000, 80); ok {
		t.Fatal("unknown UE IP matched")
	}
}

func TestMDITreeMissWithinSession(t *testing.T) {
	sessions := []testSession{{
		UEIP:    0x0a000001,
		Session: 0,
		PDRs:    []PortRange{{Lo: 100, Hi: 200}},
	}}
	tree, err := newMDITree(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.Lookup(0x0a000001, 300); ok {
		t.Fatal("out-of-range port matched")
	}
	if _, _, ok := tree.Lookup(0x0a000001, 50); ok {
		t.Fatal("below-range port matched")
	}
	sess, pdr, ok := tree.Lookup(0x0a000001, 150)
	if !ok || sess != 0 || pdr != 0 {
		t.Fatalf("in-range lookup = %d,%d,%v", sess, pdr, ok)
	}
}

func TestMDITreeSessionWithNoPDRs(t *testing.T) {
	sessions := []testSession{{UEIP: 1, Session: 0}}
	tree, err := newMDITree(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.Lookup(1, 80); ok {
		t.Fatal("session with no PDRs matched")
	}
}

func TestMDITreeErrors(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := NewMDITree(as, "t", nil, nil); err == nil {
		t.Fatal("empty sessions accepted")
	}
	for name, sessions := range map[string][]testSession{
		"duplicate UE IP": {{UEIP: 1, Session: 0}, {UEIP: 1, Session: 1}},
		"overlapping ranges": {{
			UEIP: 1, Session: 0,
			PDRs: []PortRange{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 150}},
		}},
		"inverted range": {{
			UEIP: 1, Session: 0,
			PDRs: []PortRange{{Lo: 100, Hi: 50}},
		}},
	} {
		headers, ranges := flat(sessions)
		if _, err := NewMDITree(as, "t", headers, ranges); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	headers, ranges := flat(sessionsFixture(2, 4))
	if _, err := NewMDITree(as, "t", headers, ranges[1:]); err == nil {
		t.Error("7 ranges accepted for headers counting 8")
	}
	headers[0].Rules, headers[1].Rules = -4, 12
	if _, err := NewMDITree(as, "t", headers, ranges); err == nil {
		t.Error("negative rule count accepted")
	}
}

func TestMDITreeDepthLogarithmic(t *testing.T) {
	tree, err := newMDITree(sessionsFixture(1024, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Balanced: level-1 depth ~ log2(1024)=10, level-2 ~ log2(16)=4.
	if d := tree.Depth(); d > 16 {
		t.Fatalf("Depth = %d, want <= 16 for balanced tree", d)
	}
}

func TestMDITreeStepwiseMatchesLookup(t *testing.T) {
	tree, err := newMDITree(sessionsFixture(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	var cur model.Cursor
	tree.Begin(&cur, 0x0a000000+17, 30000)
	steps := 0
	for {
		if !tree.region.Contains(cur.Addr, sim.LineBytes) {
			t.Fatalf("cursor addr %#x outside tree region", cur.Addr)
		}
		res := tree.WalkStep(&cur)
		steps++
		if res == StepFound {
			break
		}
		if res == StepMiss {
			t.Fatal("stepwise walk missed")
		}
		if steps > tree.Depth()+1 {
			t.Fatalf("walk exceeded depth bound: %d steps", steps)
		}
	}
	wantSess, wantPDR, ok := tree.Lookup(0x0a000000+17, 30000)
	if !ok {
		t.Fatal("reference lookup missed")
	}
	if SessionOf(&cur) != wantSess || cur.Idx != wantPDR {
		t.Fatalf("stepwise = %d/%d, reference = %d/%d", SessionOf(&cur), cur.Idx, wantSess, wantPDR)
	}
}

// Property: stepwise walk and reference lookup agree for arbitrary
// queries, hit or miss.
func TestMDITreeProperty(t *testing.T) {
	tree, err := newMDITree(sessionsFixture(128, 4))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(ipOff uint16, port uint16) bool {
		ip := 0x0a000000 + uint32(ipOff)%200 // ~36% misses
		sess, pdr, ok := tree.Lookup(ip, port)

		var cur model.Cursor
		tree.Begin(&cur, ip, port)
		for i := 0; i <= tree.Depth()+1; i++ {
			switch tree.WalkStep(&cur) {
			case StepContinue:
				continue
			case StepFound:
				return ok && SessionOf(&cur) == sess && cur.Idx == pdr
			case StepMiss:
				return !ok
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMDIWalkAddressTrace pins the tree's simulated behaviour: an FNV
// hash of every address Begin and WalkStep stage and of every step's
// result, over lookups that hit, miss on the port (sessions with gaps
// between their ranges), miss on the UE IP, and reach a session with no
// PDRs, plus Depth and Nodes. Node numbering and visit order decide
// every simulated access of the UPF's match module, so a host-side
// layout change must leave all three values where they are.
func TestMDIWalkAddressTrace(t *testing.T) {
	const base = 0x0a000000
	sessions := sessionsFixture(61, 8)
	for i := range sessions {
		if i%3 == 1 { // every other range dropped: port misses
			var kept []PortRange
			for j, r := range sessions[i].PDRs {
				if j%2 == 0 {
					kept = append(kept, r)
				}
			}
			sessions[i].PDRs = kept
		}
		if i%7 == 5 { // a lone middle range
			sessions[i].PDRs = sessions[i].PDRs[3:4]
		}
	}
	sessions = append(sessions, testSession{UEIP: base + 61, Session: 61})
	tree, err := newMDITree(sessions)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	var results [4]int
	var cur model.Cursor
	for ue := uint32(base - 2); ue < base+64; ue++ {
		for port := 0; port < 65536; port += 997 {
			tree.Begin(&cur, ue, uint16(port))
			for {
				binary.LittleEndian.PutUint64(buf[:], cur.Addr)
				h.Write(buf[:])
				res := tree.WalkStep(&cur)
				h.Write([]byte{byte(res)})
				if res != StepContinue {
					results[res]++
					break
				}
			}
		}
	}
	if results[StepFound] == 0 || results[StepMiss] == 0 {
		t.Fatalf("fixture does not cover hits and misses: %v", results)
	}
	const wantHash, wantDepth, wantNodes = uint64(0x420ac2a7767c0b4f), 10, 422
	if got := h.Sum64(); got != wantHash || tree.Depth() != wantDepth || nodes(tree) != wantNodes {
		t.Fatalf("walk trace hash %#x, Depth %d, %d nodes; pinned %#x, %d, %d", got, tree.Depth(), nodes(tree), wantHash, wantDepth, wantNodes)
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want uint64 }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, tt := range tests {
		if got := nextPow2(tt.in); got != tt.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}
