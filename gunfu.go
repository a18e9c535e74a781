// Package gunfu is the public API of GuNFu-Go, a reproduction of
// "Interleaved Function Stream Execution Model for Cache-Aware
// High-Speed Stateful Packet Processing" (ICDCS 2024).
//
// GuNFu is a network function platform built on two ideas:
//
//   - Granular Decomposition: NFs are decomposed into NFStates,
//     NFActions and NFEvents wired by a control-logic FSM, so the
//     runtime knows which state every action will touch before it runs.
//   - Interleaved function-stream execution: a per-core scheduler keeps
//     many packet streams in flight, prefetches the next action's state
//     for each, and switches streams instead of stalling on cache
//     misses.
//
// Because Go exposes no hardware prefetch or PMU control, state
// accesses are charged to a deterministic simulated cache hierarchy
// (see DESIGN.md); throughput and cache metrics are reported in
// simulated cycles at a 2.7 GHz clock.
//
// The quickest path: build an NF (or take one from the included
// library), compile it to a Program, and run it under the interleaved
// Worker or the run-to-completion baseline:
//
//	as := gunfu.NewAddressSpace()
//	n, _ := gunfu.NewNAT(as, gunfu.NATConfig{MaxFlows: 65536})
//	prog, _ := n.Program()
//	core, _ := gunfu.NewCore(gunfu.DefaultSimConfig())
//	w, _ := gunfu.NewWorker(core, as, prog, gunfu.DefaultWorkerConfig())
//	res, _ := w.Run(src, 1_000_000)
//	fmt.Println(res.Gbps())
package gunfu

import (
	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/exp"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/amf"
	"github.com/gunfu-nfv/gunfu/internal/nf/fw"
	"github.com/gunfu-nfv/gunfu/internal/nf/lb"
	"github.com/gunfu-nfv/gunfu/internal/nf/monitor"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/nf/upf"
	"github.com/gunfu-nfv/gunfu/internal/obs"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Simulated hardware (see internal/sim).
type (
	// SimConfig describes the simulated core and cache hierarchy.
	SimConfig = sim.Config
	// Core is one simulated CPU core with caches and a PMU.
	Core = sim.Core
	// Counters is the PMU counter block.
	Counters = sim.Counters
)

// DefaultSimConfig models the paper's Xeon 8168 testbed core.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewCore builds a simulated core.
func NewCore(cfg SimConfig) (*Core, error) { return sim.NewCore(cfg) }

// Simulated memory (see internal/mem).
type (
	// AddressSpace hands out simulated addresses for NF state.
	AddressSpace = mem.AddressSpace
	// Layout maps record fields to offsets (the data-packing target).
	Layout = mem.Layout
	// Field is one named state variable in a Layout.
	Field = mem.Field
	// Pool is a pre-allocated per-flow datablock table.
	Pool = mem.Pool
)

// NewAddressSpace creates a fresh simulated address space.
func NewAddressSpace() *AddressSpace { return mem.NewAddressSpace() }

// The NF model (see internal/model): granular decomposition's parts.
type (
	// Program is a compiled network function or SFC.
	Program = model.Program
	// Builder assembles Programs from modules, states and transitions.
	Builder = model.Builder
	// Action is one NFAction with its declared state accesses.
	Action = model.Action
	// Exec is the per-stream execution context (the NFTask payload).
	Exec = model.Exec
	// EventID identifies an interned NFEvent.
	EventID = model.EventID
	// FieldRef symbolically names the state an action accesses.
	FieldRef = model.FieldRef
	// Binding is one module's state: its pools, their layouts and its
	// control region.
	Binding = model.Binding
)

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder { return model.NewBuilder(name) }

// Packets and flows (see internal/pkt).
type (
	// Packet is one frame with real header bytes and a simulated
	// buffer address.
	Packet = pkt.Packet
	// FiveTuple is the classic flow key.
	FiveTuple = pkt.FiveTuple
)

// Runtimes.
type (
	// Worker is the interleaved function-stream executor (the paper's
	// contribution).
	Worker = rt.Worker
	// WorkerConfig tunes interleaving depth, batching and prefetching.
	WorkerConfig = rt.Config
	// Result summarizes a run (throughput, PMU deltas).
	Result = rt.Result
	// Source supplies packets to a worker.
	Source = rt.Source
	// Engine runs share-nothing workers across simulated cores.
	Engine = rt.Engine
	// CoreSetup builds one engine core's worker.
	CoreSetup = rt.CoreSetup
)

// DefaultWorkerConfig returns the evaluation's tuning (16 NFTasks).
func DefaultWorkerConfig() WorkerConfig { return rt.DefaultConfig() }

// NewWorker builds an interleaved worker for prog on core.
func NewWorker(core *Core, as *AddressSpace, prog *Program, cfg WorkerConfig) (*Worker, error) {
	return rt.NewWorker(core, as, prog, cfg)
}

// DefaultRTCConfig returns the run-to-completion baseline's tuning: one
// NFTask, no prefetching, I/O settings matched to the interleaved
// worker's.
func DefaultRTCConfig() WorkerConfig { return rt.RTCConfig() }

// NewRTCWorker builds the run-to-completion baseline worker: the same
// Worker, under cfg (normally DefaultRTCConfig).
func NewRTCWorker(core *Core, as *AddressSpace, prog *Program, cfg WorkerConfig) (*Worker, error) {
	return rt.NewWorker(core, as, prog, cfg)
}

// NewEngine builds a multi-core engine over per-core setups.
func NewEngine(cfg SimConfig, setups []CoreSetup) (*Engine, error) {
	return rt.NewEngine(cfg, setups)
}

// AggregateResults combines per-core results into a fleet view.
func AggregateResults(results []Result) Result { return rt.Aggregate(results) }

// The NF library: the paper's evaluated network functions.
type (
	// NAT is the stateful network address translator.
	NAT = nat.NAT
	// NATConfig parametrizes a NAT.
	NATConfig = nat.Config
	// UPF is the 5G user plane function.
	UPF = upf.UPF
	// UPFConfig parametrizes a UPF.
	UPFConfig = upf.Config
	// AMF is the 5G access and mobility management function.
	AMF = amf.AMF
	// AMFConfig parametrizes an AMF.
	AMFConfig = amf.Config
	// LB is the stateful load balancer.
	LB = lb.LB
	// LBConfig parametrizes an LB.
	LBConfig = lb.Config
	// FW is the stateful firewall.
	FW = fw.FW
	// FWConfig parametrizes a firewall.
	FWConfig = fw.Config
	// FWRule is one firewall policy rule.
	FWRule = fw.Rule
	// Monitor is the per-flow network monitor.
	Monitor = monitor.Monitor
	// MonitorConfig parametrizes a monitor.
	MonitorConfig = monitor.Config
)

// NewNAT builds a NAT instance.
func NewNAT(as *AddressSpace, cfg NATConfig) (*NAT, error) { return nat.New(as, cfg) }

// NewUPF builds a fully configured UPF instance.
func NewUPF(as *AddressSpace, cfg UPFConfig) (*UPF, error) { return upf.New(as, cfg) }

// NewAMF builds an AMF with its UE population registered.
func NewAMF(as *AddressSpace, cfg AMFConfig) (*AMF, error) { return amf.New(as, cfg) }

// NewLB builds a load balancer instance.
func NewLB(as *AddressSpace, cfg LBConfig) (*LB, error) { return lb.New(as, cfg) }

// NewFW builds a firewall instance.
func NewFW(as *AddressSpace, cfg FWConfig) (*FW, error) { return fw.New(as, cfg) }

// NewMonitor builds a monitor instance.
func NewMonitor(as *AddressSpace, cfg MonitorConfig) (*Monitor, error) { return monitor.New(as, cfg) }

// FWDefaultPolicy builds an n-rule policy ending in a catch-all allow.
func FWDefaultPolicy(n int) []FWRule { return fw.DefaultPolicy(n) }

// The compiler (see internal/compile).
type (
	// Chainable is an NF that composes into service function chains.
	Chainable = compile.Chainable
	// SFCOptions selects the chain compilation optimizations.
	SFCOptions = compile.SFCOptions
	// FuseMember describes one NF's records for fused data packing.
	FuseMember = compile.FuseMember
)

// BuildSFC compiles a chain of NFs into one Program.
func BuildSFC(name string, chain []Chainable, opts SFCOptions) (*Program, error) {
	return compile.BuildSFC(name, chain, opts)
}

// PopulateFlows installs a shared flow-index assignment into a chain.
func PopulateFlows(chain []Chainable, tuples []FiveTuple) error {
	return compile.PopulateFlows(chain, tuples)
}

// PackLayout is the data-packing optimization: co-accessed fields into
// shared cache lines.
func PackLayout(fields []Field, groups [][]string) (*Layout, error) {
	return compile.PackLayout(fields, groups)
}

// FuseStates builds one fused, packed per-flow pool for a whole chain
// and returns each member's Binding of it.
func FuseStates(as *AddressSpace, name string, members []FuseMember, maxFlows int) (map[string]*Binding, error) {
	return compile.FuseStates(as, name, members, maxFlows)
}

// BuildChain constructs the paper's LB→NAT→NM→FW… chain of the given
// length over fresh state.
func BuildChain(as *AddressSpace, length, flows int) ([]Chainable, error) {
	return deploy.NewChain(as, length, flows, false)
}

// Traffic generation (see internal/traffic).
type (
	// FlowGenConfig parametrizes a synthetic flow workload.
	FlowGenConfig = traffic.FlowGenConfig
	// FlowGen emits packets over a flow population.
	FlowGen = traffic.FlowGen
	// MGWConfig parametrizes the Telco-benchmark MGW (UPF) workload.
	MGWConfig = traffic.MGWConfig
	// MGWGen emits MGW downlink traffic.
	MGWGen = traffic.MGWGen
	// AMFTrafficConfig parametrizes the UE registration workload.
	AMFTrafficConfig = traffic.AMFConfig
	// AMFGen emits NAS registration messages.
	AMFGen = traffic.AMFGen
	// CaidaConfig parametrizes the CAIDA-like synthetic trace.
	CaidaConfig = traffic.CaidaConfig
	// CaidaGen emits the heavy-tailed IMIX trace.
	CaidaGen = traffic.CaidaGen
)

// Flow orders for FlowGenConfig.Order.
const (
	OrderUniform    = traffic.OrderUniform
	OrderZipf       = traffic.OrderZipf
	OrderRoundRobin = traffic.OrderRoundRobin
)

// NewFlowGen builds a synthetic flow workload generator.
func NewFlowGen(cfg FlowGenConfig) (*FlowGen, error) { return traffic.NewFlowGen(cfg) }

// NewMGWGen builds the UPF downlink workload generator.
func NewMGWGen(cfg MGWConfig) (*MGWGen, error) { return traffic.NewMGWGen(cfg) }

// NewAMFGen builds the registration call-flow generator.
func NewAMFGen(cfg AMFTrafficConfig) (*AMFGen, error) { return traffic.NewAMFGen(cfg) }

// NewCaidaGen builds the CAIDA-like trace generator.
func NewCaidaGen(cfg CaidaConfig) (*CaidaGen, error) { return traffic.NewCaidaGen(cfg) }

// Experiments (see internal/exp): the paper's figures as runnable
// table generators.
type (
	// ExpOptions tunes an experiment run.
	ExpOptions = exp.Options
	// ResultTable is one rendered experiment table.
	ResultTable = stats.Table
)

// RunExperiment regenerates one figure by id ("fig2" … "fig15",
// "ablation"), rendering tables to opts.Out.
func RunExperiment(name string, opts ExpOptions) ([]*ResultTable, error) {
	return exp.Run(name, opts)
}

// ExperimentNames lists the available experiment ids.
func ExperimentNames() []string { return exp.Names() }

// Observability (see internal/obs): tracing is observation-only — a
// traced run's counters are byte-identical to an untraced run's — and
// the disabled hook costs one bit test with zero allocations.
type (
	// Tracer receives the simulated core's event stream
	// (Core.SetTracer): in emission order, delivered at flush points —
	// every Worker.Run return among them — not synchronously.
	Tracer = sim.Tracer
	// BatchTracer is the optional upgrade a Tracer implements to take
	// each flush as one slice instead of one call per event.
	BatchTracer = sim.BatchTracer
	// TraceEvent is one cycle-stamped simulation event.
	TraceEvent = sim.TraceEvent
	// ObsCollector folds the event stream into per-NFAction /
	// per-NFState attribution tables and latency quantiles.
	ObsCollector = obs.Collector
	// ObsTraceWriter exports the event stream as Chrome trace-event
	// JSON for ui.perfetto.dev.
	ObsTraceWriter = obs.TraceWriter
	// LatencyHistogram is the log-bucketed quantile histogram behind
	// the latency tables.
	LatencyHistogram = stats.Histogram
	// FlightRecorder is the fixed-size ring of the newest events,
	// dumpable as a Perfetto trace after the fact.
	FlightRecorder = obs.FlightRecorder
	// LatencyProbe tracks only the rx→done latency distribution, cheap
	// enough for serving deployments.
	LatencyProbe = obs.LatencyProbe
	// MetricsRegistry is the stdlib-only OpenMetrics text-exposition
	// registry (mount it at /metrics). It stores no values: every
	// family is a FamilyFunc (or a Summary over a histogram) that emits
	// its series at scrape time.
	MetricsRegistry = obs.Registry
)

// NewObsCollector builds an attribution collector for prog at freqHz.
func NewObsCollector(prog *Program, freqHz float64) *ObsCollector {
	return obs.NewCollector(prog, freqHz)
}

// NewObsTraceWriter builds a Chrome trace exporter for prog at freqHz.
func NewObsTraceWriter(prog *Program, freqHz float64) *ObsTraceWriter {
	return obs.NewTraceWriter(prog, freqHz)
}

// MultiTracer fans one event stream out to several tracers (nils are
// dropped; an all-nil call returns nil, keeping the fast path).
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// NewFlightRecorder builds an event ring holding the newest `size`
// events (rounded up to a power of two, minimum 64).
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewFlightRecorder(size) }

// NewLatencyProbe builds an rx→done latency tracer.
func NewLatencyProbe() *LatencyProbe { return obs.NewLatencyProbe() }

// NewMetricsRegistry builds an empty OpenMetrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
