package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// peakRSSMB is the most memory the process has held resident, as the
// kernel counts it (VmHWM). Where /proc is missing it falls back to
// what the Go runtime has obtained from the system.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
