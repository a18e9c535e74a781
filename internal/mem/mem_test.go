package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

func TestAddressSpaceReserve(t *testing.T) {
	as := NewAddressSpace()
	a := as.Reserve(100, 0)
	b := as.Reserve(100, 0)
	if a == 0 {
		t.Fatal("address 0 handed out")
	}
	if a%sim.LineBytes != 0 || b%sim.LineBytes != 0 {
		t.Fatalf("allocations not line aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Fatalf("overlapping ranges: a=%#x b=%#x", a, b)
	}
	c := as.Reserve(8, 4096)
	if c%4096 != 0 {
		t.Fatalf("custom alignment not honoured: %#x", c)
	}
	if as.Used() < c+8 {
		t.Fatalf("Used() = %d too small", as.Used())
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Name: "r", Base: 1000, Size: 100}
	tests := []struct {
		addr, n uint64
		want    bool
	}{
		{1000, 100, true},
		{1000, 1, true},
		{1099, 1, true},
		{999, 1, false},
		{1100, 1, false},
		{1050, 100, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.addr, tt.n); got != tt.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", tt.addr, tt.n, got, tt.want)
		}
	}
}

func TestPool(t *testing.T) {
	as := NewAddressSpace()
	p, err := NewPool(as, "flows", 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.EntrySize() != sim.LineBytes {
		t.Fatalf("EntrySize = %d, want padded to %d", p.EntrySize(), sim.LineBytes)
	}
	if p.Count() != 10 {
		t.Fatalf("Count = %d", p.Count())
	}
	a0, a1 := p.AddrAt(0), p.AddrAt(1)
	if a1-a0 != p.EntrySize() {
		t.Fatalf("entry stride = %d, want %d", a1-a0, p.EntrySize())
	}
	if !p.Region().Contains(a0, p.EntrySize()) {
		t.Fatal("entry outside region")
	}
}

func TestPoolErrors(t *testing.T) {
	as := NewAddressSpace()
	if _, err := NewPool(as, "bad", 0, 10); err == nil {
		t.Fatal("zero entrySize accepted")
	}
	if _, err := NewPool(as, "bad", 8, 0); err == nil {
		t.Fatal("zero count accepted")
	}
}

// TestAddrAtPanics pins AddrAt's out-of-range contract: a negative
// index and one past the end both panic, naming the pool.
func TestAddrAtPanics(t *testing.T) {
	as := NewAddressSpace()
	p, err := NewPool(as, "flows", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int32{-1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("AddrAt(%d) did not panic", i)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "pool flows") {
					t.Fatalf("AddrAt(%d) panic %q does not name the pool", i, msg)
				}
			}()
			p.AddrAt(i)
		}()
	}
}

func TestNewLayout(t *testing.T) {
	l, err := NewLayout(
		Field{Name: "a", Size: 4},
		Field{Name: "b", Size: 8},
		Field{Name: "c", Size: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	offA, _ := l.Offset("a")
	offB, _ := l.Offset("b")
	offC, _ := l.Offset("c")
	if offA != 0 || offB != 8 || offC != 16 {
		t.Fatalf("offsets a=%d b=%d c=%d, want 0/8/16", offA, offB, offC)
	}
	if l.Size() != 18 {
		t.Fatalf("Size = %d, want 18", l.Size())
	}
	if l.Lines() != 1 {
		t.Fatalf("Lines = %d, want 1", l.Lines())
	}
	if _, err := l.Offset("zzz"); err == nil {
		t.Fatal("unknown field lookup succeeded")
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(Field{Name: "", Size: 4}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewLayout(Field{Name: "a", Size: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewLayout(Field{Name: "a", Size: 4}, Field{Name: "a", Size: 4}); err == nil {
		t.Fatal("duplicate field accepted")
	}
}

func TestPackedLayout(t *testing.T) {
	fields := []Field{{Name: "a", Size: 8}, {Name: "b", Size: 8}}
	l, err := PackedLayout(fields, map[string]uint64{"a": 64, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := l.Offset("a"); off != 64 {
		t.Fatalf("a offset = %d", off)
	}
	if l.Size() != 72 {
		t.Fatalf("Size = %d, want 72", l.Size())
	}
	if l.Lines() != 2 {
		t.Fatalf("Lines = %d, want 2", l.Lines())
	}
}

func TestPackedLayoutErrors(t *testing.T) {
	fields := []Field{{Name: "a", Size: 8}, {Name: "b", Size: 8}}
	if _, err := PackedLayout(fields, map[string]uint64{"a": 0, "b": 4}); err == nil {
		t.Fatal("overlapping placements accepted")
	}
	if _, err := PackedLayout(fields, map[string]uint64{"a": 0}); err == nil {
		t.Fatal("missing offset accepted")
	}
	if _, err := PackedLayout(fields, map[string]uint64{"a": 0, "b": 8, "c": 16}); err == nil {
		t.Fatal("extra offset accepted")
	}
}

func TestLinesTouched(t *testing.T) {
	// Two fields far apart: 2 lines naturally, 1 when packed together.
	fields := []Field{
		{Name: "hot1", Size: 8},
		{Name: "cold", Size: 112},
		{Name: "hot2", Size: 8},
	}
	natural, err := NewLayout(fields...)
	if err != nil {
		t.Fatal(err)
	}
	n, err := natural.LinesTouched([]string{"hot1", "hot2"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("natural LinesTouched = %d, want 2", n)
	}
	packed, err := PackedLayout(fields, map[string]uint64{"hot1": 0, "hot2": 8, "cold": 64})
	if err != nil {
		t.Fatal(err)
	}
	n, err = packed.LinesTouched([]string{"hot1", "hot2"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("packed LinesTouched = %d, want 1", n)
	}
	if _, err := packed.LinesTouched([]string{"nope"}); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestSpan(t *testing.T) {
	l, err := NewLayout(Field{Name: "x", Size: 4}, Field{Name: "y", Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	off, size, err := l.Span("y")
	if err != nil {
		t.Fatal(err)
	}
	if off != 8 || size != 16 {
		t.Fatalf("Span(y) = (%d,%d), want (8,16)", off, size)
	}
	if _, _, err := l.Span("zzz"); err == nil {
		t.Fatal("unknown span succeeded")
	}
}

func TestFieldsReturnsCopy(t *testing.T) {
	l, err := NewLayout(Field{Name: "x", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := l.Fields()
	f[0].Name = "mutated"
	if l.Fields()[0].Name != "x" {
		t.Fatal("Fields() exposed internal slice")
	}
}

// Property: pool entries never overlap and are all inside the region.
func TestPoolDisjointProperty(t *testing.T) {
	prop := func(entrySize uint8, count uint8) bool {
		es := uint64(entrySize%200) + 1
		n := int(count%50) + 1
		as := NewAddressSpace()
		p, err := NewPool(as, "p", es, n)
		if err != nil {
			return false
		}
		prevEnd := uint64(0)
		for i := 0; i < n; i++ {
			a := p.AddrAt(int32(i))
			if a < prevEnd {
				return false
			}
			if !p.Region().Contains(a, es) {
				return false
			}
			prevEnd = a + p.EntrySize()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a natural layout never places two fields at overlapping
// offsets and its size covers every field.
func TestLayoutNoOverlapProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		fields := make([]Field, 0, len(sizes))
		for i, s := range sizes {
			fields = append(fields, Field{
				Name: string(rune('a' + i)),
				Size: uint64(s%32) + 1,
			})
		}
		l, err := NewLayout(fields...)
		if err != nil {
			return false
		}
		type span struct{ from, to uint64 }
		var spans []span
		for _, f := range fields {
			off, size, err := l.Span(f.Name)
			if err != nil {
				return false
			}
			if off+size > l.Size() {
				return false
			}
			spans = append(spans, span{off, off + size})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].from < spans[j].to && spans[j].from < spans[i].to {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
