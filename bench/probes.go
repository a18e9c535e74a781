package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/dstruct"
)

// probeFrames is how many of the workload's own frames the traffic and
// pkt probes loop over (the generators' pool size, so all stay intact).
const probeFrames = checkPackets

// probeRounds is how many passes over those frames each probe times.
const probeRounds = 16

// probeTraffic times Source.Next in a bare loop and counts what it
// allocates, on a fresh generator of the workload's population.
func probeTraffic(sp *spans, inst *instance, m metricValues) error {
	src, err := inst.regen()
	if err != nil {
		return err
	}
	for i := 0; i < probeFrames; i++ { // build the lazy per-flow templates
		src.Next()
	}
	return sp.do("traffic.next.alone", func() error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		const n = probeFrames * probeRounds
		for i := 0; i < n; i++ {
			if src.Next() == nil {
				return fmt.Errorf("traffic probe: generator ran dry")
			}
		}
		runtime.ReadMemStats(&ms1)
		m["traffic.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / n
		return nil
	})
}

// probePkt times header parsing and, where the workload rewrites
// headers, the NAT rewrite plus TTL decrement with their incremental
// checksum updates, on the workload's own frames.
func probePkt(sp *spans, inst *instance, rewrite bool, m metricValues) error {
	src, err := inst.regen()
	if err != nil {
		return err
	}
	frames := make([]*gunfu.Packet, probeFrames)
	for i := range frames {
		if frames[i] = src.Next(); frames[i] == nil {
			return fmt.Errorf("pkt probe: generator ran dry")
		}
	}
	const n = probeFrames * probeRounds
	var fails int
	if err := sp.do("pkt.parse", func() error {
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			for _, p := range frames {
				if p.Parse() != nil {
					fails++
				}
			}
		}
		m["pkt.parse_ns"] = float64(time.Since(t0).Nanoseconds()) / n
		m["pkt.parse_fail_ratio"] = float64(fails) / n
		return nil
	}); err != nil || !rewrite {
		return err
	}
	return sp.do("pkt.rewrite", func() error {
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			for i, p := range frames {
				if err := p.RewriteNAT(0xc6336401+uint32(r), uint16(1024+i)); err != nil {
					return err
				}
				if _, err := p.DecTTL(); err != nil {
					return err
				}
			}
		}
		m["pkt.rewrite_ns"] = float64(time.Since(t0).Nanoseconds()) / n
		for _, p := range frames {
			if !ipv4ChecksumOK(p.Data) {
				return fmt.Errorf("pkt probe: incremental checksum diverged from a full recompute")
			}
		}
		return nil
	})
}

// probeDstruct times the match structures host-side at the workload's
// population: cuckoo inserts and lookups of every populated key, and
// for the UPF the two-level MDI-tree lookup.
func probeDstruct(sp *spans, inst *instance, m metricValues) error {
	n := inst.population
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = inst.key(i)
	}
	var table *dstruct.Cuckoo
	if err := sp.do("dstruct.insert", func() (err error) {
		t0 := time.Now()
		if table, err = dstruct.NewCuckoo(gunfu.NewAddressSpace(), "probe", n); err != nil {
			return err
		}
		for i, k := range keys {
			if err := table.Insert(k, int32(i)); err != nil {
				return err
			}
		}
		m["dstruct.insert_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		return nil
	}); err != nil {
		return err
	}
	// Visit keys in a scattered order, as packets of a uniform flow mix
	// do, over at least as many lookups as the other probes make.
	rounds := 1 + probeFrames*probeRounds/n
	var lookups, misses int
	if err := sp.do("dstruct.cuckoo_lookup", func() error {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := range keys {
				j := (i*7919 + r) % n
				if v, ok := table.Lookup(keys[j]); !ok || int(v) != j {
					misses++
				}
			}
		}
		lookups += rounds * n
		m["dstruct.cuckoo_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*n)
		return nil
	}); err != nil {
		return err
	}
	if inst.tree != nil {
		if err := sp.do("dstruct.mdi_lookup", func() error {
			t0 := time.Now()
			const total = probeFrames * probeRounds
			for i := 0; i < total; i++ {
				ip, port := inst.treeKey(i * 7919)
				if _, _, ok := inst.tree.Lookup(ip, port); !ok {
					misses++
				}
			}
			lookups += total
			m["dstruct.mdi_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / total
			return nil
		}); err != nil {
			return err
		}
	}
	m["dstruct.lookup_miss_ratio"] = float64(misses) / float64(lookups)
	return nil
}

// obsRounds is how many attached/detached pairs probeObs alternates.
const obsRounds = 3

// probeObs measures what attaching each production tracer costs: the
// same sample through a fresh interleaved worker with the tracer on the
// core, over the same with none. Pairs alternate so drift cancels.
func probeObs(sp *spans, inst *instance, warm, sample uint64, m metricValues) error {
	for _, t := range []struct {
		metric string
		make   func() gunfu.Tracer
	}{
		{"obs.flight_overhead_ratio", func() gunfu.Tracer { return gunfu.NewFlightRecorder(1 << 16) }},
		{"obs.latency_probe_overhead_ratio", func() gunfu.Tracer { return gunfu.NewLatencyProbe() }},
	} {
		var on, off []float64
		for i := 0; i < obsRounds; i++ {
			ns, err := probeRun(sp, "obs.detached", inst, false, nil, warm, sample)
			if err != nil {
				return err
			}
			off = append(off, ns)
			if ns, err = probeRun(sp, t.metric, inst, false, t.make(), warm, sample); err != nil {
				return err
			}
			on = append(on, ns)
		}
		m[t.metric] = ratio(median(on), median(off))
	}
	return nil
}
