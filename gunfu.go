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
// The facade exports what its callers (the examples, the commands, the
// benchmark) use. NFs are authored inside the module, under
// internal/nf or through the spec → NF-C path of internal/compile; the
// facade builds the paper's NAT, UPF and AMF and its LB→NAT→NM→FW…
// chain. The quickest path: build one, take its Program, and run it
// under the interleaved Worker or the run-to-completion baseline:
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
)

// NewAddressSpace creates a fresh simulated address space.
func NewAddressSpace() *AddressSpace { return mem.NewAddressSpace() }

// Program is a compiled network function or SFC (see internal/model).
type Program = model.Program

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

// The paper's single network functions (BuildChain builds the SFC
// members).
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
)

// NewNAT builds a NAT instance.
func NewNAT(as *AddressSpace, cfg NATConfig) (*NAT, error) { return nat.New(as, cfg) }

// NewUPF builds a fully configured UPF instance.
func NewUPF(as *AddressSpace, cfg UPFConfig) (*UPF, error) { return upf.New(as, cfg) }

// NewAMF builds an AMF with its UE population registered.
func NewAMF(as *AddressSpace, cfg AMFConfig) (*AMF, error) { return amf.New(as, cfg) }

// The compiler (see internal/compile).
type (
	// Chainable is an NF that composes into service function chains.
	Chainable = compile.Chainable
	// SFCOptions selects the chain compilation optimizations.
	SFCOptions = compile.SFCOptions
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
)

// OrderUniform (a FlowGenConfig.Order) draws flows uniformly at random.
const OrderUniform = traffic.OrderUniform

// NewFlowGen builds a synthetic flow workload generator.
func NewFlowGen(cfg FlowGenConfig) (*FlowGen, error) { return traffic.NewFlowGen(cfg) }

// NewMGWGen builds the UPF downlink workload generator.
func NewMGWGen(cfg MGWConfig) (*MGWGen, error) { return traffic.NewMGWGen(cfg) }

// NewAMFGen builds the registration call-flow generator.
func NewAMFGen(cfg AMFTrafficConfig) (*AMFGen, error) { return traffic.NewAMFGen(cfg) }

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
	// TraceEvent is one cycle-stamped simulation event.
	TraceEvent = sim.TraceEvent
	// FlightRecorder is the fixed-size ring of the newest events,
	// dumpable as a Perfetto trace after the fact.
	FlightRecorder = obs.FlightRecorder
	// LatencyProbe tracks only the rx→done latency distribution, cheap
	// enough for serving deployments.
	LatencyProbe = obs.LatencyProbe
)

// NewFlightRecorder builds an event ring holding the newest `size`
// events (rounded up to a power of two, minimum 64).
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewFlightRecorder(size) }

// NewLatencyProbe builds an rx→done latency tracer.
func NewLatencyProbe() *LatencyProbe { return obs.NewLatencyProbe() }
