package sim

// scanSetAVX2 compares one whole set at once (setscan_amd64.s). ways is
// a multiple of 8, at most 64. match has bit w set where tags[w] == want
// and empty where tags[w] == 0. When stamps is non-nil and the set is
// full with no match — the one case that evicts — lru is the lowest way
// holding the smallest stamp, compared as unsigned; otherwise lru is -1.
//
//go:noescape
func scanSetAVX2(tags *uint32, stamps *uint64, ways int, want uint32) (match, empty uint64, lru int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the OS-enabled register state.
func xgetbv() (eax uint32)

// hostAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers: CPUID leaf 7's AVX2 bit, leaf 1's OSXSAVE and AVX bits, and
// XCR0's XMM and YMM state bits. It is a fact about the host, read once;
// whether a level uses the kernel is that level's own field (cache.vec).
var hostAVX2 = func() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()
