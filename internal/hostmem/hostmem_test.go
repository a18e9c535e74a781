package hostmem

import "testing"

type record struct {
	key  uint64
	body [56]byte
}

// TestPrefetchIsAHint: a prefetch reads nothing and faults on nothing —
// not on the last element of a slice (whose line may be the last of its
// mapping), not on nil — and leaves the data alone.
func TestPrefetchIsAHint(t *testing.T) {
	recs := make([]record, 1000)
	for i := range recs {
		recs[i].key = uint64(i)
	}
	for i := range recs {
		Prefetch(&recs[i])
	}
	Prefetch(&recs[len(recs)-1].body[55])
	var none *record
	Prefetch(none)
	for i := range recs {
		if recs[i].key != uint64(i) {
			t.Fatalf("record %d changed under Prefetch", i)
		}
	}
}

func TestPrefetchDoesNotAllocate(t *testing.T) {
	recs := make([]record, 64)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		Prefetch(&recs[i&63])
		i++
	}); n != 0 {
		t.Fatalf("Prefetch allocates %v times per call", n)
	}
	// A stack value must stay on the stack: the stub is go:noescape.
	if n := testing.AllocsPerRun(1000, func() {
		var local record
		Prefetch(&local)
	}); n != 0 {
		t.Fatalf("Prefetch moves its argument to the heap (%v allocs per call)", n)
	}
}

func BenchmarkPrefetch(b *testing.B) {
	recs := make([]record, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Prefetch(&recs[(i*40503)&(1<<16-1)])
	}
}
