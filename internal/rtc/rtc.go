// Package rtc is the per-packet run-to-completion baseline: the
// execution model of BESS, FastClick, L25GC and the other platforms the
// paper compares against (§II-B).
//
// It runs the *same* compiled Program as the interleaved runtime —
// identical actions, identical state layouts, identical simulated
// hardware — but processes each packet to completion before touching
// the next: every state access that misses the cache stalls the core
// for the full fill latency, with no other stream's work to overlap it.
// The only difference from internal/rt is scheduling, which is what
// makes the head-to-head numbers in the evaluation attributable to the
// execution model alone. Host-side accelerations in the shared
// machinery — the compiled step plans, the way-hint lookups, the
// span fast paths — apply to both workers identically, so they speed
// the comparison up without tilting it.
package rtc

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Config tunes the RTC worker.
type Config struct {
	// Batch is the rx burst size.
	Batch int
	// RxCost is the per-packet receive cost in instructions.
	RxCost uint64
	// RingSlots and SlotBytes set the rx buffer ring geometry.
	RingSlots int
	// SlotBytes is the buffer slot size in bytes.
	SlotBytes uint64
}

// DefaultConfig matches the interleaved runtime's I/O settings so the
// comparison isolates the execution model.
func DefaultConfig() Config {
	return Config{Batch: 32, RxCost: 30, RingSlots: 512, SlotBytes: 2048}
}

// Worker is the run-to-completion executor.
type Worker struct {
	core *sim.Core
	prog *model.Program
	cfg  Config
	ring *pkt.Ring
	exec *model.Exec
	seq  uint64
	// batch is the reusable rx burst buffer (see rt.Worker.receive).
	batch []*pkt.Packet
}

// NewWorker builds an RTC worker for prog on core.
func NewWorker(core *sim.Core, as *mem.AddressSpace, prog *model.Program, cfg Config) (*Worker, error) {
	if cfg.Batch <= 0 || cfg.RingSlots <= 0 || cfg.SlotBytes == 0 {
		return nil, fmt.Errorf("rtc: batch and ring geometry must be positive")
	}
	ringBase := as.Reserve(uint64(cfg.RingSlots)*cfg.SlotBytes, sim.LineBytes)
	ring, err := pkt.NewRing(ringBase, cfg.SlotBytes, cfg.RingSlots)
	if err != nil {
		return nil, fmt.Errorf("rtc: %w", err)
	}
	tempSize := uint64(prog.TempLines()) * sim.LineBytes
	return &Worker{
		core:  core,
		prog:  prog,
		cfg:   cfg,
		ring:  ring,
		exec:  &model.Exec{Core: core, TempAddr: as.Reserve(tempSize, sim.LineBytes)},
		batch: make([]*pkt.Packet, 0, cfg.Batch),
	}, nil
}

// Core returns the worker's simulated core.
func (w *Worker) Core() *sim.Core { return w.core }

// Run processes up to maxPackets packets (0 = until src is exhausted),
// each to completion, and returns the windowed result. The Result type
// is shared with the interleaved runtime for direct comparison. As in
// rt, every return is a trace flush point.
func (w *Worker) Run(src rt.Source, maxPackets uint64) (rt.Result, error) {
	res, err := w.run(src, maxPackets)
	w.core.FlushTrace()
	return res, err
}

func (w *Worker) run(src rt.Source, maxPackets uint64) (rt.Result, error) {
	startCtr := w.core.Counters()
	startCycles := w.core.Now()

	var done uint64
	var bits float64
	var accessCycles uint64
	// RTC has a single execution context; stamp it as task slot 0 so
	// traced runs are comparable with single-task interleaved runs.
	traced := w.core.Tracer() != nil

	for maxPackets == 0 || done < maxPackets {
		// Receive a burst (cost identical to the interleaved runtime).
		n := w.cfg.Batch
		if maxPackets > 0 && maxPackets-done < uint64(n) {
			n = int(maxPackets - done)
		}
		if traced {
			w.core.SetTask(-1)
			w.core.SetCS(-1)
		}
		batch := w.batch[:0]
		for len(batch) < n {
			p := src.Next()
			if p == nil {
				break
			}
			p.Addr = w.ring.Slot(w.seq)
			w.seq++
			hdr := uint64(len(p.Data))
			if hdr > 128 {
				hdr = 128
			}
			w.core.DMAFill(p.Addr, hdr)
			w.core.Compute(w.cfg.RxCost)
			if traced {
				w.core.Emit(sim.TraceRx, sim.CauseNone, p.Addr, uint64(p.Bits()), 0)
			}
			batch = append(batch, p)
		}
		if len(batch) == 0 {
			break
		}
		if traced {
			w.core.SetTask(0)
		}
		// The burst was numbered consecutively, ending at w.seq.
		seq0 := w.seq - uint64(len(batch))
		for i, p := range batch {
			w.exec.ResetStream(p, w.prog.Start(), seq0+uint64(i))
			for !w.exec.Done {
				if err := w.prog.Step(w.exec); err != nil {
					return rt.Result{}, fmt.Errorf("rtc: step: %w", err)
				}
			}
			done++
			bits += p.Bits()
			accessCycles += w.exec.AccessCycles
			w.exec.AccessCycles = 0
			if traced {
				w.core.Emit(sim.TraceStreamDone, sim.CauseNone, p.Addr, uint64(p.Bits()), 0)
			}
		}
	}

	return rt.Result{
		Packets:      done,
		Bits:         bits,
		Cycles:       w.core.Now() - startCycles,
		FreqHz:       w.core.Config().FreqHz,
		Counters:     w.core.Counters().Sub(startCtr),
		AccessCycles: accessCycles,
	}, nil
}
