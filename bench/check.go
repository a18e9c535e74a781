package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/gunfu-nfv/gunfu"
)

// checkPackets is how many packets the output check compares. It is
// the size of the generators' recycled packet pool, so every frame
// handed out is still intact when the run ends.
const checkPackets = 4096

// ipv4Off and ipv4Len locate the IPv4 header in a generator frame.
const (
	ipv4Off = 14
	ipv4Len = 20
)

// outFrame is what one packet looked like going in and coming out.
type outFrame struct {
	in      gunfu.FiveTuple
	out     gunfu.FiveTuple
	wireLen int
	teid    uint32
	data    []byte
}

// recorder hands a generator's packets to a worker and remembers them
// in generation order.
type recorder struct {
	src  gunfu.Source
	pkts []*gunfu.Packet
	in   []gunfu.FiveTuple
}

func (r *recorder) Next() *gunfu.Packet {
	p := r.src.Next()
	if p != nil {
		r.pkts = append(r.pkts, p)
		r.in = append(r.in, p.Tuple)
	}
	return p
}

// packetRunner is the windowed Run contract the interleaved worker and
// the run-to-completion baseline share.
type packetRunner interface {
	Run(src gunfu.Source, maxPackets uint64) (gunfu.Result, error)
}

// newRunner builds a fresh worker for inst on core: the interleaved
// worker at its default tuning, or the run-to-completion baseline.
func newRunner(core *gunfu.Core, inst *instance, rtc bool) (packetRunner, error) {
	if rtc {
		return gunfu.NewRTCWorker(core, inst.as, inst.prog, gunfu.DefaultRTCConfig())
	}
	return gunfu.NewWorker(core, inst.as, inst.prog, gunfu.DefaultWorkerConfig())
}

// collectOutputs pushes the first checkPackets packets of inst's
// stream through a fresh worker on a fresh core — the interleaved
// worker, or the run-to-completion baseline when rtc is set — and
// returns the frames as the program left them.
func collectOutputs(inst *instance, rtc bool) ([]outFrame, error) {
	src, err := inst.regen()
	if err != nil {
		return nil, err
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return nil, err
	}
	rec := &recorder{src: src}
	w, err := newRunner(core, inst, rtc)
	if err != nil {
		return nil, err
	}
	res, err := w.Run(rec, checkPackets)
	if err != nil {
		return nil, err
	}
	if res.Packets != checkPackets || len(rec.pkts) != checkPackets {
		return nil, fmt.Errorf("ran %d of %d packets to completion", res.Packets, checkPackets)
	}
	frames := make([]outFrame, len(rec.pkts))
	for i, p := range rec.pkts {
		frames[i] = outFrame{
			in: rec.in[i], out: p.Tuple, wireLen: p.WireLen, teid: p.TEID,
			data: append([]byte(nil), p.Data...),
		}
	}
	return frames, nil
}

// compareOutputs is the correctness condition for chained stateful NFs
// under interleaving: what the interleaved worker emits must equal,
// packet for packet and byte for byte, what run-to-completion emits.
// It also recomputes every IPv4 header checksum in full and, for NAT
// workloads, requires a per-flow-stable, injective rewrite. Each packet
// that breaks a condition counts as one failed operation.
func compareOutputs(spec *packetSpec, il, rtc []outFrame, out *outcome) {
	type wire struct {
		src, dst uint32
		sp, dp   uint16
		proto    uint8
	}
	byFlow := make(map[gunfu.FiveTuple]wire)
	byWire := make(map[wire]gunfu.FiveTuple)
	out.attempted += checkPackets
	for i := range il {
		a, b := &il[i], &rtc[i]
		ok := a.in == b.in && a.out == b.out && a.wireLen == b.wireLen && a.teid == b.teid &&
			bytes.Equal(a.data, b.data) && ipv4ChecksumOK(a.data)
		if ok && spec.natRewrite {
			ip := a.data[ipv4Off:]
			w := wire{
				src: binary.BigEndian.Uint32(ip[12:16]), dst: binary.BigEndian.Uint32(ip[16:20]),
				sp: binary.BigEndian.Uint16(ip[ipv4Len:]), dp: binary.BigEndian.Uint16(ip[ipv4Len+2:]),
				proto: ip[9],
			}
			if prev, seen := byFlow[a.in]; seen && prev != w {
				ok = false // the same flow was rewritten two ways
			}
			if prev, seen := byWire[w]; seen && prev != a.in {
				ok = false // two flows collide on the wire
			}
			if w.src == a.in.SrcIP && w.sp == a.in.SrcPort {
				ok = false // not rewritten at all
			}
			byFlow[a.in] = w
			byWire[w] = a.in
		}
		if !ok {
			out.failed++
		}
	}
}

// ipv4ChecksumOK recomputes the header checksum of frame from scratch:
// the one's-complement sum over the whole header must be 0xffff.
func ipv4ChecksumOK(frame []byte) bool {
	if len(frame) < ipv4Off+ipv4Len {
		return false
	}
	var sum uint32
	hdr := frame[ipv4Off : ipv4Off+ipv4Len]
	for i := 0; i < ipv4Len; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum == 0xffff
}
