package traffic

import (
	"encoding/binary"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// FuzzHeaderWriter decodes data into a tuple and a wire size and holds
// the generators' header writer to TestHeaderWriterMatchesEncoders'
// properties: the pkt encoders' bytes, and a parse that reads the
// tuple back. data is src(4) dst(4) sport(2) dport(2) proto(1) wire(2),
// big-endian; proto's low bit picks TCP or UDP and wire is taken into
// [64, 1518]. Shorter inputs are zero-padded.
func FuzzHeaderWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [15]byte
		copy(b[:], data)
		tuple := pkt.FiveTuple{
			SrcIP:   binary.BigEndian.Uint32(b[0:4]),
			DstIP:   binary.BigEndian.Uint32(b[4:8]),
			SrcPort: binary.BigEndian.Uint16(b[8:10]),
			DstPort: binary.BigEndian.Uint16(b[10:12]),
			Proto:   pkt.ProtoUDP,
		}
		if b[12]&1 == 1 {
			tuple.Proto = pkt.ProtoTCP
		}
		wire := 64 + int(binary.BigEndian.Uint16(b[13:15]))%(1518-64+1)
		checkHeaderWriter(t, tuple, wire)
	})
}
