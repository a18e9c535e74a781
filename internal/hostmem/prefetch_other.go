//go:build !amd64 && !arm64

package hostmem

import "unsafe"

// prefetch is a no-op where no stub is written: the hint is optional.
func prefetch(unsafe.Pointer) {}
