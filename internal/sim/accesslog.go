package sim

// This file defines the access log: an optional hook that observes every
// charged memory operation at the point it enters the core. Unlike the
// Tracer (which reports simulation *outcomes* — stalls, prefetch fates),
// the access log reports the *inputs*: the exact (addr, size, kind,
// cycle) sequence an executor issued. The differential-replay harness in
// internal/model uses it to prove that the compiled step-plan executor
// and the interpreted reference executor drive the core with
// byte-identical sequences.
//
// Granularity: demand reads and writes are logged per Read/Write call
// (both executors issue them span-by-span), prefetches per line (the
// plan executor issues pre-resolved lines while the interpreter issues
// spans, but both decompose to the same per-line issue sequence inside
// the core). Residency queries are pure and charge nothing, so they are
// not logged.
//
// The hook is host-side only and counter-neutral, but unlike the Tracer
// it disables the L1 read/write fast path while attached (the fast path
// would bypass the logging site), so attach it only in tests.

// AccessKind discriminates logged memory operations.
type AccessKind uint8

// The access kinds.
const (
	// AccessRead is a demand read (Core.Read).
	AccessRead AccessKind = iota + 1
	// AccessWrite is a demand write (Core.Write).
	AccessWrite
	// AccessPrefetch is one prefetch line issue (Core.Prefetch and
	// Core.PrefetchLine decompose to these).
	AccessPrefetch
)

// String names the kind for diagnostics.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessPrefetch:
		return "prefetch"
	default:
		return "none"
	}
}

// MemAccess is one charged memory operation as issued to the core.
type MemAccess struct {
	// Addr and Size delimit the accessed bytes (for AccessPrefetch, the
	// full line).
	Addr, Size uint64
	// Cycle is the core clock when the operation was issued (before any
	// cycles it charges).
	Cycle uint64
	// Kind discriminates the operation.
	Kind AccessKind
}

// SetAccessLog attaches fn to receive every charged memory operation
// (nil detaches). The log observes only; it never changes a simulated
// result.
func (c *Core) SetAccessLog(fn func(MemAccess)) { c.alog = fn }
