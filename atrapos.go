// Package atrapos is a from-scratch reproduction of "ATraPos: Adaptive
// Transaction Processing on Hardware Islands" (Porobic, Liarou, Tözün,
// Ailamaki — ICDE 2014) as a Go library.
//
// The library models a multisocket multicore server (hardware Islands),
// implements the storage-manager substrate the paper builds on (multi-rooted
// B-trees, hierarchical locking, Aether-style logging, transaction
// management), the system designs the paper compares (centralized
// shared-everything, extreme and coarse shared-nothing, PLP), and the paper's
// contribution: ATraPos' NUMA-aware system state plus its workload- and
// hardware-aware adaptive partitioning and placement mechanism.
//
// Because the Go runtime offers no NUMA placement control, hardware is
// simulated: a run is one goroutine issuing transactions one at a time, the
// cores of an explicit topology model are virtual-time accounts, and every
// data-structure operation charges virtual time to the core the model says
// did the work, according to a NUMA cost model. Throughput is measured in
// virtual time, which makes every result a pure function of seed and
// configuration, independent of the host. See DESIGN.md for the full
// substitution table.
//
// Typical use:
//
//	wl := atrapos.TATP(atrapos.TATPOptions{Subscribers: 100_000})
//	sys, err := atrapos.Open(atrapos.Options{
//		Design:   atrapos.DesignATraPos,
//		Workload: wl,
//		Adaptive: true,
//	})
//	if err != nil { ... }
//	res, err := sys.Run(atrapos.RunOptions{Transactions: 100_000})
//	fmt.Println(res.ThroughputTPS)
//
// Mid-run hardware events — socket and log-device failures, restores, crash
// drills — are declared as a FaultSchedule on RunOptions.Faults. A System
// opened with Options.Tracing exports its spans, planner decisions and
// metrics through Tracer().
//
// The experiments of the paper's evaluation section are available through
// RunExperiment and the atrapos-bench command.
package atrapos

import (
	"fmt"

	"atrapos/internal/backend"
	"atrapos/internal/core"
	"atrapos/internal/device"
	"atrapos/internal/engine"
	"atrapos/internal/fault"
	"atrapos/internal/harness"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// Design selects one of the system designs the paper compares.
type Design = engine.Design

// The supported system designs.
const (
	// DesignCentralized is the traditional centralized shared-everything design.
	DesignCentralized = engine.Centralized
	// DesignPLP is physiological partitioning (the prior state of the art).
	DesignPLP = engine.PLP
	// DesignHWAware is PLP plus NUMA-aware system state with naïve placement.
	DesignHWAware = engine.HWAware
	// DesignATraPos is the paper's full design.
	DesignATraPos = engine.ATraPos
	// DesignSharedNothing is the parametric shared-nothing design: one
	// logical instance per hardware island at Options.IslandLevel. The
	// paper's extreme configuration is IslandLevel LevelCore, its coarse one
	// LevelSocket.
	DesignSharedNothing = engine.SharedNothing
)

// Topology models a multisocket machine as a hierarchical island tree.
type Topology = topology.Topology

// IslandLevel names one tier of the island hierarchy (core, die, socket,
// machine).
type IslandLevel = topology.Level

// The island granularities, finest to coarsest.
const (
	LevelCore    = topology.LevelCore
	LevelDie     = topology.LevelDie
	LevelSocket  = topology.LevelSocket
	LevelMachine = topology.LevelMachine
)

// MachineProfile is a named machine shape from the profile library.
type MachineProfile = topology.Profile

// Profiles returns the built-in machine profiles.
func Profiles() []MachineProfile { return topology.Profiles() }

// BuildProfile instantiates a named machine profile.
func BuildProfile(name string) (*Topology, error) { return topology.BuildProfile(name) }

// NewTopology builds a machine with the given number of sockets and cores per
// socket, connected with a twisted-cube-like interconnect. For machines with
// sub-socket structure build a MachineProfile.
func NewTopology(sockets, coresPerSocket int) (*Topology, error) {
	return topology.New(topology.Config{Sockets: sockets, CoresPerSocket: coresPerSocket})
}

// Workload couples a dataset with a transaction generator.
type Workload = workload.Workload

// TATPOptions configures the TATP benchmark.
type TATPOptions = workload.TATPOptions

// TPCCOptions configures the TPC-C benchmark.
type TPCCOptions = workload.TPCCOptions

// Skew describes a hot-set access skew.
type Skew = workload.Skew

// Phase is one segment of a time-varying TATP class mix
// (TATPOptions.Phases): its Mix is in force for its Duration of virtual time,
// and the phase list repeats after its last phase.
type Phase = workload.Phase

// TATP builds the TATP telecom benchmark workload.
func TATP(opts TATPOptions) (*Workload, error) { return workload.TATP(opts) }

// MustTATP is TATP but panics on configuration errors.
func MustTATP(opts TATPOptions) *Workload { return workload.MustTATP(opts) }

// TPCC builds the TPC-C wholesale supplier benchmark workload.
func TPCC(opts TPCCOptions) (*Workload, error) { return workload.TPCC(opts) }

// SingleRowRead returns the perfectly partitionable microbenchmark of the
// paper's Figures 1, 2 and 5.
func SingleRowRead(rows int) *Workload { return workload.SingleRowRead(rows) }

// MultisiteUpdate returns the microbenchmark of Figures 3 and 4 with the
// given percentage of multi-site transactions.
func MultisiteUpdate(rows, pctMultiSite int) *Workload {
	return workload.MultisiteUpdate(rows, pctMultiSite)
}

// TwoTableSimple returns the two-table transaction of Figure 6.
func TwoTableSimple(rows int) *Workload { return workload.TwoTableSimple(rows) }

// ReadHundred returns the remote-memory microbenchmark of Table I.
func ReadHundred(rows int) *Workload { return workload.ReadHundred(rows) }

// YCSBMix names one of the YCSB core mixes (A: 50/50 read/update,
// B: 95/5, C: read-only).
type YCSBMix = workload.YCSBMix

// The YCSB core mixes.
const (
	MixYCSBA = workload.YCSBA
	MixYCSBB = workload.YCSBB
	MixYCSBC = workload.YCSBC
)

// YCSB returns the named YCSB core mix: single-row reads and updates over a
// Zipf-skewed, site-local key distribution, perfectly partitionable at any
// island granularity.
func YCSB(rows int, mix YCSBMix) *Workload { return workload.YCSB(rows, mix) }

// Options configures a System.
type Options struct {
	// Design selects the system design; the zero value is DesignCentralized.
	Design Design
	// IslandLevel selects the instance granularity of DesignSharedNothing
	// (one logical instance per island at this level); the zero value means
	// socket-grained instances. Ignored by the other designs.
	IslandLevel IslandLevel
	// DeviceLayout optionally names a log-device layout (LogDeviceLayouts) to
	// instantiate on the machine: write-ahead logs are then bound to modeled
	// log devices and commits pay each device's service and queueing cost.
	// Empty means no device modeling.
	DeviceLayout string
	// Backend selects the storage backend: the zero value is the priced
	// virtual-time path; BackendHash adds the executed sharded hash engine
	// (shared-nothing designs only, not with Adaptive) and enables
	// System.RunExecuted.
	Backend BackendKind
	// Workload supplies the dataset and transaction generator. Required.
	Workload *Workload
	// Topology models the machine; nil means the paper's 8-socket box.
	Topology *Topology
	// Adaptive enables ATraPos monitoring and adaptive repartitioning.
	Adaptive bool
	// AdaptiveInterval tunes the monitoring interval controller; the zero
	// value uses the paper's parameters (1 s initial, 8 s maximum interval).
	AdaptiveInterval IntervalConfig
	// TimeCompression declares that the run compresses that many wall-clock
	// seconds of the modeled scenario into one virtual second; repartitioning
	// costs are scaled down accordingly. Zero or one means no compression.
	TimeCompression float64
	// Tracing enables the virtual-time span tracer of Run: one whole
	// transaction is traced every 100 µs of engine time, and the island logs,
	// log devices and planner record every span, all into one pre-allocated
	// ring; planner decisions and metrics samples are kept alongside. They
	// export through System.Tracer() (Chrome trace-event JSON,
	// Perfetto-loadable, and a metrics CSV). RunExecuted records no spans.
	// Off (the default), the hot paths pay one nil check per recording site
	// and allocate nothing extra.
	Tracing bool
}

// System is an instantiated storage manager plus execution engine.
type System struct {
	engine *engine.Engine
}

// Open builds and loads a System according to opts.
func Open(opts Options) (*System, error) {
	if opts.Workload == nil {
		return nil, fmt.Errorf("atrapos: Options.Workload is required")
	}
	top := opts.Topology
	if top == nil {
		top = topology.Default()
	}
	cfg := engine.Config{
		Design:           opts.Design,
		IslandLevel:      opts.IslandLevel,
		DeviceLayout:     opts.DeviceLayout,
		Backend:          opts.Backend,
		Workload:         opts.Workload,
		Topology:         top,
		Adaptive:         opts.Adaptive,
		AdaptiveInterval: opts.AdaptiveInterval,
		TimeCompression:  opts.TimeCompression,
		Tracing:          opts.Tracing,
	}
	if opts.Design == engine.ATraPos {
		cfg.Placement = engine.DerivePlacement(opts.Workload, top, true)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{engine: e}, nil
}

// RunOptions controls one run of a System.
type RunOptions = engine.RunOptions

// Result is the outcome of a run.
type Result = engine.Result

// Run executes the workload and returns the measured result.
func (s *System) Run(opts RunOptions) (*Result, error) { return s.engine.Run(opts) }

// Tracer is the span, decision and metrics recorder of a traced System.
type Tracer = obs.Tracer

// Tracer returns the System's tracer, or nil unless Options.Tracing was set.
// It exports the trace (ExportChromeTrace, one Perfetto track per core,
// island, device and the planner, chosen by span kind) and the metrics series
// (ExportMetricsCSV) and gives programmatic access to the span ring, planner
// decisions, metrics samples and drop accounting.
func (s *System) Tracer() *Tracer { return s.engine.Tracer() }

// ExecutedResult is the outcome of a RunExecuted: real operations on the
// sharded hash backend, timed in wall nanoseconds.
type ExecutedResult = engine.ExecutedResult

// RunExecuted executes the workload on the executed hash backend (requires
// Options.Backend == BackendHash) with one executor goroutine per island, and
// returns wall-clock-measured results. Every transaction is generated at
// virtual time 0, so a run measures the workload's t = 0 mix; for a workload
// whose mix does not vary over time the stream is the deterministic stream Run
// generates for the same seed. The first call loads the backend from the
// priced tables and later calls continue from the state the previous one left.
func (s *System) RunExecuted(opts RunOptions) (*ExecutedResult, error) {
	return s.engine.RunExecuted(opts)
}

// Design returns the system's design.
func (s *System) Design() Design { return s.engine.Design() }

// Topology returns the modeled machine.
func (s *System) Topology() *Topology { return s.engine.Topology() }

// VirtualTime is a span of virtual time in nanoseconds; throughput and the
// adaptivity experiments are measured against it.
type VirtualTime = vclock.Nanos

// Seconds converts seconds to VirtualTime.
func Seconds(s float64) VirtualTime { return workload.Seconds(s) }

// IntervalConfig tunes the adaptive monitoring interval controller.
type IntervalConfig = core.IntervalConfig

// Scale controls how large the reproduction experiments run.
type Scale = harness.Scale

// QuickScale returns a scale that runs every experiment in seconds.
func QuickScale() Scale { return harness.QuickScale() }

// PaperScale returns the paper's experimental scale.
func PaperScale() Scale { return harness.PaperScale() }

// ExperimentTable is the rendered result of one experiment.
type ExperimentTable = harness.Table

// Experiment is one reproducible table or figure: its id, what it shows and
// its driver.
type Experiment = harness.Experiment

// Experiments lists every reproducible table and figure in presentation
// order.
func Experiments() []Experiment { return harness.Registry() }

// RunExperiment reproduces one of the paper's tables or figures by id
// (e.g. "fig2", "table1").
func RunExperiment(id string, scale Scale) (*ExperimentTable, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	exp, ok := harness.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("atrapos: unknown experiment %q (known: %v)", id, harness.IDs())
	}
	return exp.Run(scale)
}

// ExperimentResult is one registry experiment's outcome from a timed run:
// its rendered table, its wall time, and its error if it failed. Results
// stay in registry order regardless of Scale.Parallel.
type ExperimentResult = harness.ExperimentResult

// RunAllExperimentsTimed reproduces every table and figure at the given
// scale, fanning the priced experiments across Scale.Parallel goroutines and
// then running the wall-clock-measured ones alone, and returns per-experiment
// results in registry order. A failed experiment does not abort the rest; the
// returned error joins every failure.
func RunAllExperimentsTimed(scale Scale) ([]ExperimentResult, error) {
	return harness.RunAllTimed(scale)
}

// LogDeviceLayout is a named storage shape: the class and count of the log
// devices a machine flushes its write-ahead logs to.
type LogDeviceLayout = device.Layout

// LogDeviceLayouts returns the built-in log-device layouts, most parallel
// first (one NVMe per socket, a shared device per die pair, a single
// SATA-class device).
func LogDeviceLayouts() []LogDeviceLayout { return device.Layouts() }

// TracedDriftResult is the outcome of RunTracedDrift: the level trajectory
// plus the exported trace and metrics documents and their accounting.
type TracedDriftResult = harness.TracedDriftResult

// RunTracedDrift executes the adaptive-granularity drift scenario with the
// span tracer enabled (default profile chiplet-2s4d; the exported documents
// are bit-identical on any host at any parallelism) and
// writes the Chrome-trace JSON and metrics CSV to the given paths when
// non-empty. Both documents are validated before the result is returned.
func RunTracedDrift(scale Scale, tracePath, metricsPath string) (*TracedDriftResult, error) {
	return harness.RunTracedDrift(scale, tracePath, metricsPath)
}

// FaultEvent is one declarative fault of a schedule: a socket or log-device
// failure, a device degradation, a socket restore, or a crash-recovery drill,
// at a point of virtual time.
type FaultEvent = fault.Event

// FaultMachine describes the hardware a fault schedule targets, so schedules
// validate at construction, before any engine exists.
type FaultMachine = fault.Machine

// FaultSchedule is a validated, time-ordered fault schedule; attach one to a
// run via RunOptions.Faults. Fault-free runs (nil schedule) are untouched.
type FaultSchedule = fault.Schedule

// NewFaultSchedule validates the events against the machine descriptor and
// their own history (no failing the failed, no restoring the alive, always
// one alive socket and device) and returns the schedule.
func NewFaultSchedule(m FaultMachine, events ...FaultEvent) (*FaultSchedule, error) {
	return fault.NewSchedule(m, events...)
}

// FailSocketFault schedules a socket failure at virtual time at.
func FailSocketFault(at VirtualTime, socket int) FaultEvent {
	return fault.FailSocket(at, topology.SocketID(socket))
}

// RestoreSocketFault schedules a failed socket's return at virtual time at.
func RestoreSocketFault(at VirtualTime, socket int) FaultEvent {
	return fault.RestoreSocket(at, topology.SocketID(socket))
}

// FailDeviceFault schedules a log-device failure at virtual time at.
func FailDeviceFault(at VirtualTime, dev int) FaultEvent {
	return fault.FailDevice(at, dev)
}

// DegradeDeviceFault schedules a log-device slowdown by latencyFactor (>= 1;
// 1 restores full speed) at virtual time at.
func DegradeDeviceFault(at VirtualTime, dev int, latencyFactor float64) FaultEvent {
	return fault.DegradeDevice(at, dev, latencyFactor)
}

// CrashAndRecoverFault schedules a crash drill at virtual time at: volatile
// state covered by the write-ahead logs is dropped and recovery replays the
// logged records before the run continues. Logs retain no records by
// default; a run whose schedule holds a drill switches every log to full
// retention before its first transaction, and refuses the drill if a log has
// already dropped a record.
func CrashAndRecoverFault(at VirtualTime) FaultEvent {
	return fault.CrashAndRecover(at)
}

// BackendKind selects the storage backend of a shared-nothing engine: the
// priced (virtual-time) path, or the executed sharded hash engine measured in
// real wall time.
type BackendKind = backend.Kind

// The storage backends.
const (
	// BackendPriced is the default virtual-time storage path.
	BackendPriced = backend.Priced
	// BackendHash is the executed storage mode: a Bitcask-style sharded hash
	// engine with one single-owner shard, value log and executor goroutine per
	// island.
	BackendHash = backend.Hash
)
