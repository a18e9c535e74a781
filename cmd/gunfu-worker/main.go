// Command gunfu-worker is the GuNFu runtime agent: it connects to a
// director, registers, and executes NF deployments on a local
// simulated core, reporting measurements back.
//
// Usage:
//
//	gunfu-worker -connect 127.0.0.1:7700 -name worker-1 -metrics 127.0.0.1:8080
//
// With -metrics the agent serves its observability plane on one HTTP
// address:
//
//	/metrics       OpenMetrics/Prometheus text exposition: volume
//	               counters and the raw PMU block of the current run
//	               (a new deployment reads as a counter reset),
//	               last-window derived rates, rx→done latency
//	               quantiles, and Go runtime gauges.
//	/debug/flight  the newest flight-recorder dump as Perfetto-loadable
//	               trace JSON (404 until a dump has been taken). A dump
//	               replays the deployment so far with the recorder
//	               attached; the live run carries no recorder.
//	/debug/pprof   Go's standard profiling endpoints.
//
// This is the only command in the module that links an HTTP stack:
// obs.Registry renders text through Expose and imports no net/http, and
// metricsHandler serves it here. The benchmark, gunfu-bench and the
// examples therefore map no net/http, crypto/tls or crypto/x509, which
// cost each of them about 1.5 MB of binary and 1 MiB of resident memory.
//
// With -reconnect the agent redials a dropped director connection
// under capped jittered exponential backoff (-backoff-min/-backoff-max,
// -backoff-attempts to bound the redials) instead of exiting — the
// production mode, and the partner of `gunfu-director -chaos`.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/director"
	"github.com/gunfu-nfv/gunfu/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	connect := flag.String("connect", "127.0.0.1:7700", "director address")
	name := flag.String("name", "", "agent name (required)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/flight and /debug/pprof on this HTTP address (e.g. 127.0.0.1:8080)")
	flightEvents := flag.Int("flight-events", director.DefaultFlightEvents, "events a flight dump holds, the newest of the deployment replayed on request (0 disables dumps)")
	dumpDir := flag.String("dump-dir", "", "directory for flight dumps (default: system temp dir)")
	reconnect := flag.Bool("reconnect", false, "redial the director with capped jittered exponential backoff when the connection drops")
	backoffMin := flag.Duration("backoff-min", director.DefaultBackoff().Min, "initial reconnect delay for -reconnect")
	backoffMax := flag.Duration("backoff-max", director.DefaultBackoff().Max, "reconnect delay cap for -reconnect")
	backoffAttempts := flag.Int("backoff-attempts", 0, "consecutive failed connection attempts before -reconnect gives up (0 = never)")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "gunfu-worker: -name is required")
		return 2
	}
	a, err := director.NewAgent(*name, deploy.DefaultRegistry())
	if err != nil {
		fmt.Fprintf(os.Stderr, "gunfu-worker: %v\n", err)
		return 1
	}
	a.FlightEvents = *flightEvents
	a.DumpDir = *dumpDir

	if *metricsAddr != "" {
		serveMetrics(a, *metricsAddr)
	}
	fmt.Printf("agent %s connecting to %s\n", *name, *connect)
	var err2 error
	if *reconnect {
		bo := director.DefaultBackoff()
		bo.Min, bo.Max, bo.Attempts = *backoffMin, *backoffMax, *backoffAttempts
		err2 = a.Serve(*connect, bo)
	} else {
		err2 = a.Run(*connect)
	}
	if err2 != nil {
		fmt.Fprintf(os.Stderr, "gunfu-worker: %v\n", err2)
		return 1
	}
	fmt.Printf("agent %s shut down\n", *name)
	return 0
}

// serveMetrics wires the agent's observability plane onto one HTTP
// server. The agent's heartbeats feed one director.Monitor, the same
// fold the director's live table reads; /metrics exposes it.
func serveMetrics(a *director.Agent, addr string) {
	reg := obs.NewRegistry()
	reg.AddGoRuntime()
	mon := director.NewMonitor()
	mon.Register(reg)
	a.OnStats = mon.Observe

	var mu sync.Mutex
	var lastInfo director.DumpInfo
	var lastDump []byte
	a.OnDump = func(info director.DumpInfo, trace []byte) {
		mu.Lock()
		lastInfo = info
		lastDump = append(lastDump[:0], trace...)
		mu.Unlock()
	}

	http.Handle("/metrics", metricsHandler(reg))
	http.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		info := lastInfo
		dump := append([]byte(nil), lastDump...)
		mu.Unlock()
		if len(dump) == 0 {
			http.Error(w, "no flight dump taken yet (the director requests one on SLO breach)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Gunfu-Flight-Events", strconv.Itoa(info.Events))
		_, _ = w.Write(dump)
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-worker: metrics: %v\n", err)
		}
	}()
	fmt.Printf("agent serving metrics on http://%s/metrics (pprof and flight dumps under /debug/)\n", addr)
}

// metricsHandler serves reg's exposition with the OpenMetrics content
// type; a scrape that fails is answered 500 with Expose's error.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		var sb strings.Builder
		if err := reg.Expose(&sb); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_, _ = io.WriteString(w, sb.String())
	}
}
