//go:build amd64 || arm64

package hostmem

import "unsafe"

// prefetch is the per-architecture stub (prefetch_$GOARCH.s).
//
//go:noescape
func prefetch(p unsafe.Pointer)
