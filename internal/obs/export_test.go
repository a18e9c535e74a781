package obs

import "github.com/gunfu-nfv/gunfu/internal/stats"

// CollectorLatency returns c's per-packet rx→done latency histogram in
// cycles, which only LatencyTable renders.
func CollectorLatency(c *Collector) *stats.Histogram { return &c.latency }
