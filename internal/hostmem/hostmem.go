// Package hostmem issues software prefetches against the memory of the
// machine the simulator itself runs on. The simulated P-stage fetch
// (model.Program.EnsurePrefetched) hides an NF's state latency inside
// sim.Core; the NF's Go-side records — cuckoo buckets, tree nodes,
// per-flow structs — miss the host's caches for
// the same reason the simulated state misses the simulated ones, and
// the same lap of lead time hides that too.
//
// A prefetch is a hint: it never faults, loads no register, and changes
// nothing the program can observe but time. It is the only use of
// package unsafe in the module, and one of its two uses of assembly;
// the other is internal/sim's AVX2 set-scan kernel (setscan_amd64.s).
package hostmem

import "unsafe"

// Prefetch asks the host CPU to bring the cache line holding *p toward
// L1 (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64, nothing elsewhere).
// It does not read *p; p may point at any element of a live slice,
// including the last, and may be nil.
func Prefetch[T any](p *T) { prefetch(unsafe.Pointer(p)) }
