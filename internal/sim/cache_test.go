package sim

import (
	"math/rand"
	"testing"
)

// scanFind is the hint-free lookup: the slot in line's set whose tag
// matches, or -1.
func scanFind(c *cache, line uint64) int {
	base := int(line&c.setMask) * c.ways
	for s := base; s < base+c.ways; s++ {
		if c.tags[s] == c.tagOf(line) {
			return s
		}
	}
	return -1
}

// scanVictim is the replacement rule read straight off the arrays: the
// lowest invalid way, else the lowest way holding the smallest stamp.
func scanVictim(c *cache, line uint64) int {
	base := int(line&c.setMask) * c.ways
	victim := base
	for s := base; s < base+c.ways; s++ {
		if c.tags[s] == 0 {
			return s
		}
		if c.stamps[s] < c.stamps[victim] {
			victim = s
		}
	}
	return victim
}

// TestProbeMatchesFindPlusVictim churns one level through randomized
// touches and installs and checks, at every op, that the lookup forms
// agree: probe's slot is find's, and probe's slot and victim agree with a
// hint-free scan of the arrays — however stale or colliding the way
// hints are. "exact" is the L1 shape (a hint table several times the
// slot count, so nearly every resident line's hint is right), "outer"
// the LLC shape (the one-entry table: every hint is shared by all lines
// and almost always wrong). Each runs on the level's own scan and, when
// that is the vector kernel, again on the scalar loops, where probe is
// find + victimOf.
func TestProbeMatchesFindPlusVictim(t *testing.T) {
	cfg := DefaultConfig().L1
	run := func(t *testing.T, c *cache) {
		rng := rand.New(rand.NewSource(13))
		space := uint64(len(c.tags)) * 2
		for i := 0; i < 100000; i++ {
			line := rng.Uint64() % space
			want := scanFind(c, line)
			if h := c.hinted(line); h >= 0 && h != want {
				t.Fatalf("op %d: hint verified slot %d, scan says %d", i, h, want)
			}
			slot, victim := c.probe(line)
			if slot != want {
				t.Fatalf("op %d: probe slot %d, scan %d", i, slot, want)
			}
			if f := c.find(line); f != want {
				t.Fatalf("op %d: find %d, scan %d", i, f, want)
			}
			if slot >= 0 {
				if victim != -1 {
					t.Fatalf("op %d: hit returned victim %d", i, victim)
				}
				c.stamps[slot] = uint64(i)
				continue
			}
			if want := scanVictim(c, line); victim != want {
				t.Fatalf("op %d: probe victim %d, scan %d", i, victim, want)
			}
			c.fill(victim, line, uint64(i))
			if i%3 == 0 {
				c.setHint(line, victim)
			}
			if i%20000 == 19999 {
				c.reset() // stale hints now point at zeroed tags
			}
		}
	}
	for _, shape := range []struct {
		name     string
		hintBits uint
	}{{"exact", l1HintBits}, {"outer", 0}} {
		t.Run(shape.name, func(t *testing.T) {
			c := newCache(cfg, shape.hintBits)
			run(t, c)
			if c.vec {
				t.Run("scalar", func(t *testing.T) {
					c := newCache(cfg, shape.hintBits)
					c.vec = false
					run(t, c)
				})
			}
		})
	}
}

// TestVictimPolicy pins the replacement rule on one three-way set: the
// lowest free way while one exists, then the strictly oldest stamp with
// ties going to the lowest way.
func TestVictimPolicy(t *testing.T) {
	c := newCache(CacheConfig{Name: "t", SizeBytes: 3 * LineBytes, Ways: 3}, 0)
	for w := 0; w < 3; w++ {
		if _, v := c.probe(uint64(100 + w)); v != w {
			t.Fatalf("free way: victim %d, want %d", v, w)
		}
		c.fill(w, uint64(100+w), 7) // all three stamps tie
	}
	for _, tc := range []struct {
		stamps [3]uint64
		want   int
	}{
		{[3]uint64{7, 7, 7}, 0},
		{[3]uint64{9, 7, 7}, 1},
		{[3]uint64{9, 8, 7}, 2},
		{[3]uint64{7, 9, 7}, 0},
	} {
		copy(c.stamps, tc.stamps[:])
		if _, v := c.probe(500); v != tc.want {
			t.Errorf("stamps %v: probe victim %d, want %d", tc.stamps, v, tc.want)
		}
		if v := c.victimOf(500); v != tc.want {
			t.Errorf("stamps %v: victimOf %d, want %d", tc.stamps, v, tc.want)
		}
	}
}
