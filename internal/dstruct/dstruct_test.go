package dstruct

import (
	"math/rand"
	"slices"
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
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
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

func TestCuckooUpdateInPlace(t *testing.T) {
	c := newCuckoo(t, 10)
	if err := c.Insert(42, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(42, 2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after update = %d, want 1", c.Len())
	}
	if v, ok := c.Lookup(42); !ok || v != 2 {
		t.Fatalf("Lookup = %d,%v, want 2,true", v, ok)
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
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCuckooCapacityError(t *testing.T) {
	if _, err := NewCuckoo(mem.NewAddressSpace(), "t", 0); err == nil {
		t.Fatal("zero capacity accepted")
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
	for b := uint64(0); b < uint64(c.Buckets()); b++ {
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

func sessionsFixture(n, pdrs int) []SessionRules {
	out := make([]SessionRules, 0, n)
	span := 65536 / pdrs
	for i := 0; i < n; i++ {
		s := SessionRules{UEIP: 0x0a000000 + uint32(i), Session: int32(i)}
		for p := 0; p < pdrs; p++ {
			lo := p * span
			hi := lo + span - 1
			if p == pdrs-1 {
				hi = 65535
			}
			s.PDRs = append(s.PDRs, PortRange{Lo: uint16(lo), Hi: uint16(hi), PDR: int32(i*pdrs + p)})
		}
		out = append(out, s)
	}
	return out
}

func TestMDITreeLookup(t *testing.T) {
	sessions := sessionsFixture(100, 4)
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessions)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Sessions() != 100 {
		t.Fatalf("Sessions = %d", tree.Sessions())
	}
	if tree.Nodes() != 100+100*4 {
		t.Fatalf("Nodes = %d, want 500", tree.Nodes())
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
// same answer for every lookup — and the caller's slices keep their
// shuffled order.
func TestMDITreeUnsortedInput(t *testing.T) {
	sorted, err := NewMDITree(mem.NewAddressSpace(), "t", sessionsFixture(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shuffled := sessionsFixture(64, 8)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, s := range shuffled {
		rng.Shuffle(len(s.PDRs), func(i, j int) { s.PDRs[i], s.PDRs[j] = s.PDRs[j], s.PDRs[i] })
	}
	before := slices.Clone(shuffled)
	for i := range before {
		before[i].PDRs = slices.Clone(before[i].PDRs)
	}
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != sorted.Nodes() {
		t.Fatalf("shuffled input built %d nodes, sorted %d", tree.Nodes(), sorted.Nodes())
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
	for i := range before {
		if before[i].UEIP != shuffled[i].UEIP || !slices.Equal(before[i].PDRs, shuffled[i].PDRs) {
			t.Fatalf("NewMDITree reordered the caller's sessions or ranges (session slot %d)", i)
		}
	}
}

func TestMDITreeMiss(t *testing.T) {
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessionsFixture(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.Lookup(0x0b000000, 80); ok {
		t.Fatal("unknown UE IP matched")
	}
}

func TestMDITreeMissWithinSession(t *testing.T) {
	sessions := []SessionRules{{
		UEIP:    0x0a000001,
		Session: 0,
		PDRs:    []PortRange{{Lo: 100, Hi: 200, PDR: 0}},
	}}
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessions)
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
	sessions := []SessionRules{{UEIP: 1, Session: 0}}
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessions)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.Lookup(1, 80); ok {
		t.Fatal("session with no PDRs matched")
	}
}

func TestMDITreeErrors(t *testing.T) {
	as := mem.NewAddressSpace()
	if _, err := NewMDITree(as, "t", nil); err == nil {
		t.Fatal("empty sessions accepted")
	}
	dup := []SessionRules{{UEIP: 1, Session: 0}, {UEIP: 1, Session: 1}}
	if _, err := NewMDITree(as, "t", dup); err == nil {
		t.Fatal("duplicate UE IP accepted")
	}
	overlap := []SessionRules{{
		UEIP: 1, Session: 0,
		PDRs: []PortRange{{Lo: 0, Hi: 100, PDR: 0}, {Lo: 50, Hi: 150, PDR: 1}},
	}}
	if _, err := NewMDITree(as, "t", overlap); err == nil {
		t.Fatal("overlapping ranges accepted")
	}
	inverted := []SessionRules{{
		UEIP: 1, Session: 0,
		PDRs: []PortRange{{Lo: 100, Hi: 50, PDR: 0}},
	}}
	if _, err := NewMDITree(as, "t", inverted); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestMDITreeDepthLogarithmic(t *testing.T) {
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessionsFixture(1024, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Balanced: level-1 depth ~ log2(1024)=10, level-2 ~ log2(16)=4.
	if d := tree.Depth(); d > 16 {
		t.Fatalf("Depth = %d, want <= 16 for balanced tree", d)
	}
}

func TestMDITreeStepwiseMatchesLookup(t *testing.T) {
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessionsFixture(64, 8))
	if err != nil {
		t.Fatal(err)
	}
	var cur model.Cursor
	tree.Begin(&cur, 0x0a000000+17, 30000)
	steps := 0
	for {
		if !tree.Region().Contains(cur.Addr, sim.LineBytes) {
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
	tree, err := NewMDITree(mem.NewAddressSpace(), "t", sessionsFixture(128, 4))
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
