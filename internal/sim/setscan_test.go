package sim

import (
	"math/rand"
	"testing"
)

// This file holds the set-scan kernel (scanSetAVX2) to two references:
// a lane-by-lane statement of its contract on arbitrary sets, and the
// cache's own scalar loops on sets that keep the cache's invariants.

// scanSetRef is scanSetAVX2's contract one way at a time.
func scanSetRef(tags []uint32, stamps []uint64, want uint32) (match, empty uint64, lru int) {
	for w, tag := range tags {
		if tag == want {
			match |= 1 << w
		}
		if tag == 0 {
			empty |= 1 << w
		}
	}
	lru = -1
	if stamps == nil || match|empty != 0 {
		return match, empty, lru
	}
	lru = 0
	for w, st := range stamps {
		if st < stamps[lru] {
			lru = w
		}
	}
	return match, empty, lru
}

// scanSetKernel calls the kernel on slices (nil stamps: no victim).
func scanSetKernel(tags []uint32, stamps []uint64, want uint32) (match, empty uint64, lru int) {
	var sp *uint64
	if stamps != nil {
		sp = &stamps[0]
	}
	return scanSetAVX2(&tags[0], sp, len(tags), want)
}

func requireKernel(t testing.TB) {
	t.Helper()
	if !hostAVX2 {
		t.Skip("host has no AVX2: every level uses the scalar scans")
	}
}

// checkKernel compares the kernel with scanSetRef, with and without
// stamps.
func checkKernel(t testing.TB, label string, tags []uint32, stamps []uint64, want uint32) {
	t.Helper()
	for _, st := range [][]uint64{nil, stamps} {
		gm, ge, gl := scanSetKernel(tags, st, want)
		wm, we, wl := scanSetRef(tags, st, want)
		if gm != wm || ge != we || gl != wl {
			t.Fatalf("%s (stamps %v): kernel match %#x empty %#x lru %d, reference %#x %#x %d\ntags %v\nstamps %v",
				label, st != nil, gm, ge, gl, wm, we, wl, tags, stamps)
		}
	}
}

// stampPalette holds the stamp values the victim rule is easiest to get
// wrong on: small equal values, both sides of 2^63 (a signed compare
// orders them backwards) and the top of the range.
var stampPalette = []uint64{0, 1, 2, 7, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}

// TestSetScanKernel pins the kernel's LRU and mask answers on
// hand-written full sets and on random sets of every supported width.
func TestSetScanKernel(t *testing.T) {
	requireKernel(t)
	const top = ^uint64(0)
	for _, ways := range []int{8, 16, 32, 64} {
		fill := func(v uint64) []uint64 {
			s := make([]uint64, ways)
			for i := range s {
				s[i] = v
			}
			return s
		}
		full := make([]uint32, ways)
		for w := range full {
			full[w] = uint32(w)<<1 | 1
		}
		absent := uint32(ways)<<1 | 1
		for _, tc := range []struct {
			name   string
			stamps []uint64
			want   int
		}{
			{"all equal", fill(5), 0},
			{"all max", fill(top), 0},
			{"all 2^63", fill(1 << 63), 0},
			{"tie at the top two ways", func() []uint64 { s := fill(9); s[ways-1], s[ways-2] = 3, 3; return s }(), ways - 2},
			{"tie first and last", func() []uint64 { s := fill(9); s[0], s[ways-1] = 3, 3; return s }(), 0},
			{"oldest last", func() []uint64 { s := fill(top); s[ways-1] = top - 1; return s }(), ways - 1},
			{"2^63 above 2^63-1", func() []uint64 { s := fill(1 << 63); s[ways/2+1] = 1<<63 - 1; return s }(), ways/2 + 1},
			{"small under high", func() []uint64 { s := fill(1<<63 + 5); s[3] = 4; return s }(), 3},
			{"max over zero", func() []uint64 { s := fill(top); s[ways-3] = 0; return s }(), ways - 3},
			{"zero then max", func() []uint64 { s := fill(0); s[0] = top; return s }(), 1},
		} {
			m, e, lru := scanSetKernel(full, tc.stamps, absent)
			if m != 0 || e != 0 || lru != tc.want {
				t.Errorf("%d ways, %s: match %#x empty %#x lru %d, want lru %d", ways, tc.name, m, e, lru, tc.want)
			}
			checkKernel(t, tc.name, full, tc.stamps, absent)
		}
		// A hit names its way and chooses no victim.
		if m, _, lru := scanSetKernel(full, fill(1), full[ways-1]); m != 1<<(ways-1) || lru != -1 {
			t.Errorf("%d ways: hit on the last way: match %#x lru %d", ways, m, lru)
		}
		// Empty and partially valid sets report their free ways.
		for valid := 0; valid < ways; valid++ {
			tags := make([]uint32, ways)
			copy(tags, full[:valid])
			m, e, lru := scanSetKernel(tags, fill(1), absent)
			if m != 0 || e != ^uint64(0)>>(64-ways)&^(1<<valid-1) || lru != -1 {
				t.Errorf("%d ways, %d valid: match %#x empty %#x lru %d", ways, valid, m, e, lru)
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 20000; i++ {
		ways := 8 * (1 + rng.Intn(8))
		tags := make([]uint32, ways)
		stamps := make([]uint64, ways)
		for w := range tags {
			if rng.Intn(8) != 0 {
				tags[w] = uint32(rng.Intn(16)) | uint32(rng.Intn(2))<<31
			}
			if rng.Intn(4) == 0 {
				stamps[w] = rng.Uint64()
			} else {
				stamps[w] = stampPalette[rng.Intn(len(stampPalette))]
			}
		}
		checkKernel(t, "random", tags, stamps, uint32(rng.Intn(16))|uint32(rng.Intn(2))<<31)
	}
}

// scanPair is one level twice over the same contents: vec through the
// kernel, loop through the scalar scans.
type scanPair struct{ vec, loop *cache }

func newScanPair(ways, sets int, hintBits uint) scanPair {
	cfg := CacheConfig{Name: "t", SizeBytes: sets * ways * LineBytes, Ways: ways}
	p := scanPair{newCache(cfg, hintBits), newCache(cfg, hintBits)}
	p.vec.vec, p.loop.vec = true, false
	return p
}

// load writes one set on both sides: lines (all of that set) fill ways
// 0..len(lines)-1, the valid prefix; stamps are per way.
func (p scanPair) load(set uint64, lines []uint64, stamps []uint64) {
	for _, c := range []*cache{p.vec, p.loop} {
		base := int(set) * c.ways
		for w := 0; w < c.ways; w++ {
			c.tags[base+w] = 0
			if w < len(lines) {
				c.tags[base+w] = c.tagOf(lines[w])
			}
			c.stamps[base+w] = stamps[w]
		}
	}
}

// check asks both sides find and probe: the kernel's probe victim for an
// absent line against the loops' find + victimOf.
func (p scanPair) check(t testing.TB, line uint64) {
	t.Helper()
	vf, lf := p.vec.find(line), p.loop.find(line)
	vs, vv := p.vec.probe(line)
	ls, lv := p.loop.probe(line)
	if vf != lf || vs != ls || vv != lv {
		t.Fatalf("line %#x: kernel find %d probe (%d, %d), loops find %d probe (%d, %d)", line, vf, vs, vv, lf, ls, lv)
	}
}

// TestSetScanMatchesLoops builds random sets that keep the cache's
// invariants — empty, partly valid and full, with tied, top-of-range and
// signed-boundary stamps — and requires the kernel-backed find and probe
// (slot and victim) to answer exactly what the scalar loops do, for
// resident and absent lines, leaving identical way hints behind.
func TestSetScanMatchesLoops(t *testing.T) {
	requireKernel(t)
	rng := rand.New(rand.NewSource(28))
	for _, ways := range []int{8, 16, 32, 64} {
		const sets = 4
		p := newScanPair(ways, sets, 4)
		for i := 0; i < 4000; i++ {
			set := uint64(rng.Intn(sets))
			valid := ways
			switch rng.Intn(4) {
			case 0:
				valid = 0
			case 1:
				valid = rng.Intn(ways)
			}
			lines := make([]uint64, valid)
			for w := range lines {
				lines[w] = (uint64(w)<<10|uint64(rng.Intn(1<<10)))*sets + set
			}
			stamps := make([]uint64, ways)
			for w := range stamps {
				stamps[w] = stampPalette[rng.Intn(len(stampPalette))]
			}
			p.load(set, lines, stamps)
			for q := 0; q < 4; q++ {
				if valid > 0 && q%2 == 0 {
					p.check(t, lines[rng.Intn(valid)])
				} else {
					p.check(t, (uint64(ways+q)<<10)*sets+set)
				}
			}
		}
		for i := range p.vec.hint {
			if p.vec.hint[i] != p.loop.hint[i] {
				t.Fatalf("%d ways: hint %d is %d through the kernel, %d through the loops", ways, i, p.vec.hint[i], p.loop.hint[i])
			}
		}
	}
}

// TestVectorScanDispatch pins which levels take the kernel: on an AVX2
// host, whole 8-tag vectors up to 64 ways; elsewhere none.
func TestVectorScanDispatch(t *testing.T) {
	for _, tc := range []struct {
		ways int
		vec  bool
	}{{1, false}, {3, false}, {8, true}, {12, false}, {16, true}, {24, true}, {64, true}, {72, false}, {300, false}} {
		c := newCache(CacheConfig{Name: "t", SizeBytes: tc.ways * LineBytes, Ways: tc.ways}, 0)
		if want := tc.vec && hostAVX2; c.vec != want {
			t.Errorf("%d ways: vec = %v, want %v (host AVX2 %v)", tc.ways, c.vec, want, hostAVX2)
		}
	}
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.l1.vec != hostAVX2 || c.l2.vec != hostAVX2 || c.llc.vec != hostAVX2 {
		t.Errorf("default core: vec L1 %v L2 %v LLC %v on a host with AVX2 %v", c.l1.vec, c.l2.vec, c.llc.vec, hostAVX2)
	}
}

// decodeStamp maps a byte onto the stamp range's edges: the low six bits
// are an offset, the top two pick the region (from 0, from 2^63, down
// from 2^64-1, down from 2^63-1).
func decodeStamp(b byte) uint64 {
	off := uint64(b & 0x3f)
	switch b >> 6 {
	case 0:
		return off
	case 1:
		return 1<<63 + off
	case 2:
		return ^uint64(0) - off
	}
	return 1<<63 - 1 - off
}

// FuzzSetScan decodes bytes into one set — ways from {8, 16, …, 64}, a
// tag and a stamp per way, a wanted tag — and requires the kernel to
// agree with scanSetRef on it as given, then with the scalar loops on
// the same bytes shaped to the cache's invariants (valid prefix,
// distinct lines). Byte 0 picks the width, byte 1 the wanted tag and
// byte 2 the valid count and the queried way; then a tag byte and a
// stamp byte per way (missing bytes read as zero).
func FuzzSetScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		requireKernel(t)
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		tagOf := func(b byte) uint32 { return uint32(b&7) | uint32(b>>7)<<31 }
		ways := 8 * (1 + int(at(0)%8))
		tags := make([]uint32, ways)
		stamps := make([]uint64, ways)
		for w := range tags {
			tags[w] = tagOf(at(3 + 2*w))
			stamps[w] = decodeStamp(at(4 + 2*w))
		}
		checkKernel(t, "raw", tags, stamps, tagOf(at(1)))

		const sets = 2
		p := newScanPair(ways, sets, 0)
		valid := int(at(2)) % (ways + 1)
		set := uint64(at(1) & 1)
		lines := make([]uint64, valid)
		for w := range lines {
			lines[w] = (uint64(w)<<8|uint64(at(3+2*w)))*sets + set
		}
		p.load(set, lines, stamps)
		if valid > 0 {
			p.check(t, lines[int(at(2))%valid])
		}
		p.check(t, (uint64(ways)<<8)*sets+set)
	})
}
