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

// FuzzPacketPool runs the pool under phases of consumers that each keep
// a window of fewer than poolSize/2 packets and, as a packet leaves the
// window or the phase ends, hand back all, some or none of them. It
// holds the pool to its contract: while a handed-back packet waits,
// take hands out a handed-back one; a held packet is never handed out
// again; a packet nobody handed back is not handed out again within
// poolSize-1 takes; and the pool never makes more than poolSize
// packets. data is read four bytes a phase (at most 16 phases): the
// policy (low two bits: 0 none, 1 all, else some), the window (two
// bytes, taken into [1, poolSize/2)) and the length in takes (one
// byte, times 64). A "some" phase draws its choices from its bytes.
func FuzzPacketPool(f *testing.F) {
	// Wrapped, then handed back: a consumer that hands nothing back takes
	// the pool past poolSize, then a worker-like one hands back bursts.
	f.Add([]byte{0, 0, 1, 80, 1, 0, 48, 40})
	// Wrapped, then a consumer that hands back about half of a large
	// window, so the reuse scan runs among recently handed-back packets.
	f.Add([]byte{0, 0, 1, 70, 2, 0x07, 0xd0, 255, 3, 0, 33, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		type state struct {
			held, back bool
			last       uint64
		}
		p := newPool()
		seen := map[*pkt.Packet]*state{}
		var takes uint64
		waiting := 0 // handed back, not yet taken again
		for phase := 0; len(data) >= 4 && phase < 16; phase++ {
			policy := data[0] & 3
			window := 1 + int(binary.BigEndian.Uint16(data[1:3]))%(poolSize/2-1)
			length := 64 * int(data[3])
			rng := uint32(binary.BigEndian.Uint32(data[0:4])) | 1
			data = data[4:]
			release := func(q *pkt.Packet) {
				s := seen[q]
				s.held = false
				back := policy == 1
				if policy >= 2 {
					rng ^= rng << 13
					rng ^= rng >> 17
					rng ^= rng << 5
					back = rng&1 == 1
				}
				if back {
					s.back = true
					waiting++
					p.Recycle(q)
				}
			}
			var held []*pkt.Packet
			for range length {
				if len(held) == window {
					release(held[0])
					held = held[1:]
				}
				q := p.take()
				s := seen[q]
				switch {
				case s == nil:
					if waiting > 0 {
						t.Fatalf("take %d made a packet while %d handed back wait", takes, waiting)
					}
					s = &state{}
					seen[q] = s
				case s.held:
					t.Fatalf("take %d handed out a held packet", takes)
				case s.back:
					waiting--
				case waiting > 0:
					t.Fatalf("take %d reused a packet nobody handed back while %d handed back wait", takes, waiting)
				case takes-s.last < poolSize:
					t.Fatalf("take %d reused a packet nobody handed back, taken %d takes before", takes, takes-s.last)
				}
				s.held, s.back, s.last = true, false, takes
				takes++
				held = append(held, q)
				if len(p.slots) > poolSize {
					t.Fatalf("pool grew to %d packets, past %d", len(p.slots), poolSize)
				}
			}
			for _, q := range held {
				release(q)
			}
		}
	})
}
