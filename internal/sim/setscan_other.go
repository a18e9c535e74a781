//go:build !amd64

package sim

// hostAVX2 is false off amd64: every level keeps the scalar scans.
const hostAVX2 = false

// scanSetAVX2 has no kernel here; newCache never selects it.
func scanSetAVX2(*uint32, *uint64, int, uint32) (match, empty uint64, lru int) {
	panic("sim: no set-scan kernel on this architecture")
}
