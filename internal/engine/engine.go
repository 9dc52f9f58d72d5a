// Package engine executes transactional workloads against the storage
// substrate under the system designs the paper compares: the traditional
// centralized shared-everything design, shared-nothing at any island
// granularity, PLP (physiological partitioning), the naïve hardware-aware
// design of Section IV, and ATraPos with its workload- and hardware-aware
// partitioning, monitoring and adaptive repartitioning.
//
// A priced run is one host goroutine issuing transactions one at a time; the
// cores of the modeled topology are virtual-time accounts. All data-structure
// operations are real; their costs are charged to per-core virtual clocks
// using the NUMA cost model, and throughput is computed from committed
// transactions divided by the busiest core's virtual time. This makes a
// result a pure function of seed and configuration, independent of the
// machine the simulation runs on, which is the substitution DESIGN.md
// describes for the paper's 8-socket hardware.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"atrapos/internal/backend"
	"atrapos/internal/core"
	"atrapos/internal/device"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/txn"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// Design enumerates the compared system designs. Each is one row of the
// design table (designRows): a choice of action routing and of whether the
// system state is striped per socket.
type Design int

const (
	// Centralized is the traditional shared-everything design: one lock
	// manager, one list of active transactions, one log, shared by all cores.
	Centralized Design = iota
	// SharedNothing is the parametric shared-nothing design: one logical
	// instance — data partition, transaction list and state-lock locality,
	// write-ahead log, 2PC site — per hardware island at the granularity
	// selected by Config.IslandLevel (core, die, socket or machine). The
	// paper's extreme (H-Store style) and coarse configurations are its core-
	// and socket-grained points; LevelDie deploys one instance per CCX/cluster
	// on chiplet machines and LevelMachine a single instance spanning the
	// whole box.
	SharedNothing
	// PLP is physiological partitioning: partition-local lock tables and
	// multi-rooted B-trees over a shared-everything storage manager, but the
	// remaining system state (transaction list, state locks) is centralized.
	PLP
	// HWAware is the Section IV proof of concept: PLP plus NUMA-aware system
	// state (per-socket transaction lists and state locks) with the naïve
	// one-partition-per-core-per-table placement. Its row is ATraPos's: only
	// the library's Open tells them apart, deriving a placement for ATraPos.
	HWAware
	// ATraPos is HWAware plus the workload- and hardware-aware partitioning
	// and placement of Section V, optionally with monitoring and adaptive
	// repartitioning.
	ATraPos
)

// String implements fmt.Stringer.
func (d Design) String() string {
	if d < 0 || int(d) >= len(designRows) {
		return fmt.Sprintf("Design(%d)", int(d))
	}
	return designRows[d].name
}

// IsSharedNothing reports whether d deploys per-island instances.
func (d Design) IsSharedNothing() bool { return d == SharedNothing }

// route says where a design executes an action and what reaching it costs.
type route int

const (
	// routeCoordinator runs every action on the coordinating core under the
	// central lock manager, from one partition per table on round-robin
	// cores (as a non-NUMA-aware allocator would), with no planner.
	routeCoordinator route = iota
	// routeOwner runs an action on its partition's owning core (redirected
	// off a failed socket) behind an atomic enqueue on the owner's action
	// queue. It implies dispatching the transaction to its dominant action's
	// owner, pricing synchronization points, recording actions into the
	// monitor and the oversaturation factor of a core hosting several
	// partition workers. It starts from Config.Placement, else one partition
	// per core per table, and its planner adapts the placement (Section V-D).
	routeOwner
	// routeIsland runs an action on its island's instance — the coordinating
	// core at home, a peer core of the remote island otherwise — behind a
	// request/response message pair. It implies one write-ahead log per
	// island and two-phase commit for updates spanning islands. It starts
	// from one partition per island, and its planner adapts the level.
	routeIsland
)

// designRow is one design's point on the two axes the paper compares: where
// an action runs (route, which also fixes the lock scope, initial placement
// and planner target; only the coordinator uses the central lock manager) and
// whether the transaction list and state lock are striped per socket.
type designRow struct {
	name      string
	route     route
	perSocket bool
}

// designRows is the design table, indexed by Design.
var designRows = [...]designRow{
	Centralized:   {"centralized", routeCoordinator, false},
	SharedNothing: {"shared-nothing", routeIsland, true},
	PLP:           {"plp", routeOwner, false},
	HWAware:       {"hw-aware", routeOwner, true},
	ATraPos:       {"atrapos", routeOwner, true},
}

// Config describes one engine instance.
type Config struct {
	// Design selects the system design. Required.
	Design Design
	// Workload supplies the dataset and the transaction generator. Required.
	Workload *workload.Workload
	// Topology models the machine; nil means the paper's 8-socket, 80-core box.
	Topology *topology.Topology
	// IslandLevel selects the instance granularity of the island-routed
	// SharedNothing design: one logical instance per island at this level.
	// The zero value defaults to topology.LevelSocket. Ignored otherwise.
	IslandLevel topology.Level
	// Placement optionally overrides the initial partitioning and placement
	// of the owner-routed designs (PLP, HWAware, ATraPos). Nil starts them
	// from one partition per core per table.
	Placement *partition.Placement
	// AllocPolicy controls on which memory node each instance's data is
	// allocated for the shared-nothing designs (Table I). Default: local;
	// AllocCentral puts every instance's data on the last socket.
	AllocPolicy numa.AllocPolicy
	// LogConfig tunes the write-ahead log; nil means defaults.
	LogConfig *wal.Config
	// Backend selects the storage engine behind the executors. The zero value
	// is the priced path (virtual costs on B-trees); backend.Hash builds the
	// executed sharded hash engine alongside the priced tables — one shard and
	// one value log per island of the current wiring — which RunExecuted
	// drives with real, measured operations. Shared-nothing designs only, and
	// not with Adaptive.
	Backend backend.Kind
	// DeviceLayout optionally names a log-device layout (device.Layouts) to
	// instantiate on the machine: island logs are then bound to the layout's
	// physical devices — one NVMe per socket, a shared device per die pair, a
	// single SATA-class device — and commits pay each device's service and
	// queueing cost. Empty means no device modeling: flushes cost the flat
	// wal.FlushCost.
	DeviceLayout string
	// DisableSLI turns off speculative lock inheritance in the centralized
	// lock manager (on by default for the centralized design, as in the paper).
	DisableSLI bool
	// Monitoring enables the monitoring mechanism of the designs whose planner
	// adapts: action and synchronization traces for PLP, HWAware and ATraPos,
	// transaction shapes for SharedNothing. Centralized ignores it.
	Monitoring bool
	// Adaptive enables adaptive repartitioning; it implies Monitoring.
	Adaptive bool
	// AdaptiveInterval tunes the monitoring interval controller.
	AdaptiveInterval core.IntervalConfig
	// Tracing enables the virtual-time span tracer of priced runs: the engine
	// pre-allocates one fixed-capacity span ring at construction. The run
	// loop traces one whole transaction every traceEvery of engine time; the
	// island logs, devices and planner record into the same ring unsampled.
	// Executed runs record no spans. Disabled (the default), every recording
	// site is a nil check and the per-transaction path allocates nothing
	// extra.
	Tracing bool
	// TimeCompression declares that the experiment compresses that many of
	// the paper's wall-clock seconds into one unit of its (shorter) virtual
	// timeline; the cost of repartitioning actions is scaled down by the same
	// factor so its share of the timeline stays faithful. The adaptivity
	// experiments (Figures 10-13) compress one paper second into one virtual
	// millisecond and therefore use 1000. Zero or one means no compression.
	TimeCompression float64
}

func (c *Config) withDefaults() (*Config, designRow, error) {
	if c.Workload == nil {
		return nil, designRow{}, fmt.Errorf("engine: config needs a workload")
	}
	if c.Design < 0 || int(c.Design) >= len(designRows) {
		return nil, designRow{}, fmt.Errorf("engine: unknown design %v", c.Design)
	}
	row := designRows[c.Design]
	out := *c
	if out.Topology == nil {
		out.Topology = topology.Default()
	}
	if out.LogConfig == nil {
		lc := wal.DefaultConfig()
		out.LogConfig = &lc
	}
	if out.Adaptive {
		out.Monitoring = true
	}
	if out.Backend == backend.Hash {
		if row.route != routeIsland {
			return nil, designRow{}, fmt.Errorf("engine: the hash backend needs a shared-nothing design, got %v", out.Design)
		}
		// The hash backend is laid out for the wiring New installs; a planner
		// that re-wires the islands would leave it behind.
		if out.Adaptive {
			return nil, designRow{}, fmt.Errorf("engine: the hash backend cannot run under the adaptive planner")
		}
	}
	// Island-routed designs default to socket-grained instances.
	if row.route == routeIsland {
		if out.IslandLevel == 0 {
			out.IslandLevel = topology.LevelSocket
		}
		if !out.IslandLevel.Valid() {
			return nil, designRow{}, fmt.Errorf("engine: invalid island level %v", out.IslandLevel)
		}
	}
	return &out, row, nil
}

// traceRingCap is the capacity, in spans, of the trace ring when
// Config.Tracing is enabled; an overflowing ring drops new spans and counts
// the drops rather than growing.
const traceRingCap = 1 << 14

// traceEvery is the engine-clock sampling period of traced transactions: the
// run loop traces a transaction (and every span of its execution) once the
// engine clock reaches the next tick, which then moves traceEvery past the
// clock. Sampling on the clock rather than on the transaction index keeps the
// trace's density per unit of virtual time even when throughput swings.
const traceEvery vclock.Nanos = 100_000 // 100 µs

// Engine is a fully wired system instance ready to run workloads.
type Engine struct {
	cfg    *Config
	row    designRow
	domain *numa.Domain
	store  *storage.Manager
	wl     *workload.Workload
	// tables holds the physical tables by dense table index, which follows
	// the workload's table order; tableIdx maps a table name to its index.
	// dispatch makes the one name lookup of an action.
	tables   []*storage.Table
	tableIdx map[string]int

	// centralLocks is the central lock manager, nil unless the design routes
	// to the coordinator. The rest of the system state (logs, 2PC
	// coordinator, transaction manager) lives in the snapshot's islandWiring.
	centralLocks *lock.CentralManager

	// devices is the machine's log-device map (Config.DeviceLayout), shared by
	// every island wiring the engine ever derives: wirings come and go with
	// level changes, but the device a die flushes through never moves, so
	// device bindings are reused across re-wirings the way island logs are.
	// Nil when no layout is configured.
	devices *device.Map

	// snap is the installed placement, its partition lock tables and island
	// wiring, swapped as one; the run loop takes it once per transaction.
	snap *stateSnapshot

	accounts []coreAccount
	adaptive *adaptiveState

	// tracer holds the span ring, metrics samples and planner decision log
	// when Config.Tracing is enabled; nil otherwise. Every recording site is
	// nil-safe, so the disabled path costs one pointer comparison.
	tracer *obs.Tracer

	// hash is the executed storage engine (Config.Backend == backend.Hash):
	// one shard per island of the wiring New installs (New refuses it with
	// Adaptive, so no planner re-wires the islands under it). Nil on the
	// priced path. hashLoaded is set once loadBackend has filled it from the
	// priced tables, which the first RunExecuted does.
	hash       *backend.HashBackend
	hashLoaded bool

	// logs is every priced log a wiring created, the installed wiring's and
	// the ones a re-wiring dropped or an abandoned wiring never used, so
	// logStats — and through it Result.Log — stays cumulative across level
	// changes.
	logs []*wal.CentralLog

	// hwm is the monotonic high-water mark of the engine-wide virtual time;
	// see virtualNow/virtualNowExact in account.go.
	hwm vclock.Nanos

	// alive caches the topology's alive-core list for liveness epoch
	// aliveEpoch, so the per-transaction path never rebuilds the slice.
	alive      []topology.Core
	aliveEpoch uint64
}

// aliveCores returns the alive cores of the topology, rebuilt only when the
// topology's liveness epoch changes. The returned slice must not be modified.
func (e *Engine) aliveCores() []topology.Core {
	if ep := e.cfg.Topology.Epoch(); e.alive == nil || e.aliveEpoch != ep {
		e.alive, e.aliveEpoch = e.cfg.Topology.AliveCores(), ep
	}
	return e.alive
}

// New builds an engine: it creates and loads the physical tables and wires
// the system-state structures required by the chosen design.
func New(cfg Config) (*Engine, error) {
	c, row, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	domain := numa.NewDomain(c.Topology)
	e := &Engine{
		cfg:      c,
		row:      row,
		domain:   domain,
		store:    storage.NewManager(domain),
		tables:   make([]*storage.Table, len(c.Workload.Tables)),
		tableIdx: make(map[string]int, len(c.Workload.Tables)),
		wl:       c.Workload,
		accounts: make([]coreAccount, c.Topology.NumCores()),
	}
	if c.DeviceLayout != "" {
		e.devices, err = device.BuildLayout(c.DeviceLayout, c.Topology)
		if err != nil {
			return nil, err
		}
	}
	if c.Tracing {
		// Built before wireStructures so the initial wiring can attach its
		// island logs to the ring.
		e.tracer = obs.NewTracer(traceRingCap, traceEvery)
		for i, d := range e.deviceList() {
			d.SetTrace(e.tracer.Ring(), int32(i))
		}
	}

	placement, err := e.initialPlacement()
	if err != nil {
		return nil, err
	}
	if err := placement.Validate(); err != nil {
		return nil, err
	}
	if err := e.createTables(placement); err != nil {
		return nil, err
	}
	if err := e.loadData(); err != nil {
		return nil, err
	}
	e.wireStructures(placement)
	if c.Backend == backend.Hash {
		if err := e.buildHashBackend(); err != nil {
			return nil, err
		}
	}
	// Adaptive implies Monitoring (withDefaults); the coordinator route has no
	// partitioning to adapt.
	if row.route != routeCoordinator && c.Monitoring {
		e.adaptive = newAdaptiveState(e, placement)
	}
	return e, nil
}

// MustNew is New but panics on error; for benches and examples with known-good configs.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Design returns the engine's design.
func (e *Engine) Design() Design { return e.cfg.Design }

// Domain returns the NUMA domain.
func (e *Engine) Domain() *numa.Domain { return e.domain }

// Topology returns the modeled machine.
func (e *Engine) Topology() *topology.Topology { return e.cfg.Topology }

// Store returns the storage manager, e.g. for inspecting tables in examples.
func (e *Engine) Store() *storage.Manager { return e.store }

// Placement returns a copy of the current partitioning and placement.
func (e *Engine) Placement() *partition.Placement { return e.snap.placement.Clone() }

// FailSocket simulates a processor failure at run time (Section VI-D3):
// the socket's cores stop being used as transaction coordinators, and work
// owned by partitions on the failed socket is redirected to a fallback core.
// The static designs keep their partitioning plan; ATraPos with Adaptive
// enabled detects the throughput change and repartitions around the failure.
func (e *Engine) FailSocket(s topology.SocketID) error {
	return e.cfg.Topology.FailSocket(s)
}

// RestoreSocket returns a failed socket to service, mirroring FailSocket: the
// socket's cores become usable as coordinators again, and the adaptive
// planner re-expands placement and wiring onto the returned capacity at its
// next monitoring boundary. It errors on an unknown or already-alive socket.
//
// The restored cores' virtual clocks are advanced to the machine's current
// virtual time before they rejoin the coordinator rotation: a socket that was
// powered off rejoins at "now", it does not replay the time it missed.
// Leaving the clocks at the fail time would stamp its commits into windows
// long past and starve the tail of the run's throughput series.
func (e *Engine) RestoreSocket(s topology.SocketID) error {
	top := e.cfg.Topology
	if int(s) < 0 || int(s) >= top.Sockets() {
		return fmt.Errorf("engine: unknown socket %d (machine has %d)", s, top.Sockets())
	}
	if top.Alive(s) {
		return fmt.Errorf("engine: socket %d is already alive", s)
	}
	now := e.virtualNowExact()
	for _, c := range top.CoresOn(s) {
		if int(c.ID) < 0 || int(c.ID) >= len(e.accounts) {
			continue
		}
		// The offline gap is charged to busy only (no component), so it shows
		// up as elapsed time, not as work of any kind.
		if e.accounts[c.ID].busy < now {
			e.accounts[c.ID].busy = now
		}
	}
	return top.RestoreSocket(s)
}

// FailDevice marks log device i failed. Island logs bound to it are re-homed
// to surviving devices by the planner's next re-wiring (their records move
// with them through the log-reuse path); the device keeps servicing flushes
// until then, so no work is lost in the gap.
func (e *Engine) FailDevice(i int) error {
	if e.devices == nil {
		return fmt.Errorf("engine: no log-device layout configured")
	}
	return e.devices.FailDevice(i)
}

// DegradeDevice multiplies log device i's service time by factor (>= 1),
// modeling a device that still works but slowed down.
func (e *Engine) DegradeDevice(i int, factor float64) error {
	if e.devices == nil {
		return fmt.Errorf("engine: no log-device layout configured")
	}
	return e.devices.DegradeDevice(i, factor)
}

// initialPlacement derives the design's default partitioning and placement.
func (e *Engine) initialPlacement() (*partition.Placement, error) {
	c := e.cfg
	specs := c.Workload.TableSpecs()
	switch e.row.route {
	case routeCoordinator:
		p := partition.NewPlacement()
		cores := c.Topology.AliveCores()
		if len(cores) == 0 {
			return nil, fmt.Errorf("engine: no alive cores")
		}
		for i, spec := range specs {
			p.Tables[spec.Name] = &partition.TablePlacement{
				Table:  spec.Name,
				Bounds: []schema.Key{0},
				Cores:  []topology.CoreID{cores[i%len(cores)].ID},
			}
		}
		return p, nil
	case routeIsland:
		return partition.PerIsland(c.Topology, c.IslandLevel, specs), nil
	default:
		if c.Placement != nil {
			return c.Placement.Clone(), nil
		}
		// Without prior knowledge ATraPos starts from the naïve scheme too and
		// adapts at run time (Section V-D, "Detecting changes").
		return partition.NaivePerCore(c.Topology, specs), nil
	}
}

// createTables creates the physical tables with partition bounds from the
// placement and memory homes derived from the owning cores (or from the
// allocation policy for shared-nothing designs).
func (e *Engine) createTables(p *partition.Placement) error {
	var alloc *numa.Placement
	if e.row.route == routeIsland {
		var err error
		alloc, err = numa.NewPlacement(e.cfg.Topology, e.cfg.AllocPolicy)
		if err != nil {
			return err
		}
	}
	for ti, td := range e.wl.Tables {
		tp, ok := p.Tables[td.Schema.Name]
		if !ok {
			return fmt.Errorf("engine: placement is missing table %s", td.Schema.Name)
		}
		homes := make([]topology.SocketID, len(tp.Cores))
		for i, c := range tp.Cores {
			s := e.cfg.Topology.SocketOf(c)
			if alloc != nil {
				s = alloc.NodeFor(s)
			}
			homes[i] = s
		}
		tbl, err := e.store.CreateTable(td.Schema, tp.Bounds, homes)
		if err != nil {
			return err
		}
		e.tables[ti] = tbl
		e.tableIdx[td.Schema.Name] = ti
	}
	return nil
}

const loadChunk = 1 << 14 // rows a loader worker generates per claim

// loadData bulk-loads every table: min(GOMAXPROCS, chunks) workers, the caller
// among them, claim all tables' loadChunk-row chunks in order and Fill them
// (generators are pure, so the worker count changes no slot). After the join
// each table in turn reports its lowest failing chunk or is finished, as a
// serial load would.
func (e *Engine) loadData() error {
	type chunk struct{ ti, c, lo, hi int }
	loads := make([]*storage.Load, len(e.wl.Tables))
	var chunks []chunk
	for ti, td := range e.wl.Tables {
		if td.RowGen != nil {
			loads[ti] = e.tables[ti].NewLoad(td.Rows, (td.Rows+loadChunk-1)/loadChunk)
			for lo := 0; lo < td.Rows; lo += loadChunk {
				chunks = append(chunks, chunk{ti, lo / loadChunk, lo, min(lo+loadChunk, td.Rows)})
			}
		}
	}
	errs := make([]error, len(chunks))
	var next atomic.Int64
	work := func() {
		for c := int(next.Add(1) - 1); c < len(chunks); c = int(next.Add(1) - 1) {
			ch := chunks[c]
			errs[c] = loads[ch.ti].Fill(ch.c, ch.lo, ch.hi, e.wl.Tables[ch.ti].RowGen)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(chunks)) - 1 {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for ti, l := range loads {
		var err error
		for c, ch := range chunks {
			if ch.ti == ti && err == nil {
				err = errs[c]
			}
		}
		if err == nil && l != nil {
			err = l.Finish()
		}
		if err != nil {
			return fmt.Errorf("engine: loading %s: %w", e.wl.Tables[ti].Schema.Name, err)
		}
	}
	return nil
}

// wireStructures builds the system-state structures the design's row asks for.
// Every design runs on an island wiring: the island-routed design at its
// level, the others as one machine-wide site whose log is homed on the first
// alive socket (socket 0 on a machine with no failed socket).
// The whole instance mapping lives in the snapshot, so the adaptive-
// granularity planner can re-derive it at a different level and swap it as a
// whole.
func (e *Engine) wireStructures(p *partition.Placement) {
	level := topology.LevelMachine
	if e.row.route == routeIsland {
		level = e.cfg.IslandLevel
	}
	if e.row.route == routeCoordinator {
		e.centralLocks = lock.NewCentralManager(e.domain, 256, !e.cfg.DisableSLI)
	}
	e.install(p, e.activePartitionsPerCore(p, 0), e.buildWiring(level, 0, nil))
}

// islandWiring is the instance mapping derived from one island granularity:
// one site per alive island at wiring's level, in island order — the same
// order the per-island data partitioning is built, so site index ==
// partition index. A site's home core is its island's first alive core; the
// full alive member list is kept so remote requests spread over the island's
// cores instead of funnelling through one.
//
// The wiring travels inside the state snapshot: a transaction reads sites,
// logs, coordinator and the transaction manager from the snapshot taken for
// it, so an online level change (a new wiring with a bumped epoch) never
// splits one transaction across two machine layouts.
type islandWiring struct {
	// level is the island granularity the wiring was derived from.
	level topology.Level
	// epoch is the topology epoch of the wiring: 0 for the wiring built at
	// construction, incremented by every online re-wiring.
	epoch uint64

	sites      []topology.Core
	siteCores  [][]topology.Core
	siteOfCore []int32

	// logs holds one write-ahead log per island; coordinator runs 2PC between
	// the islands with the islands' home cores as participants.
	logs        *wal.PartitionedLog
	coordinator *txn.Coordinator

	// txnMgr is the transaction-state layout: one transaction list and state
	// lock shared by every core (and ping-pong accordingly), or striped per
	// socket, which is island-local for socket-grained and finer instances.
	txnMgr *txn.Manager

	// reusedLogs/rebuiltLogs count how many island logs the wiring carried
	// over from its predecessor versus created fresh; reboundDevices counts
	// the reused logs whose device binding the re-wiring had to re-derive.
	reusedLogs, rebuiltLogs, reboundDevices int
}

// siteOf returns the site index of the instance whose island contains core c.
func (w *islandWiring) siteOf(c topology.CoreID) int {
	if int(c) < 0 || int(c) >= len(w.siteOfCore) {
		return 0
	}
	return int(w.siteOfCore[c])
}

// peer returns the core of site that serves a remote worker's requests: the
// island member with the worker's local index, so a real instance spreads
// incoming remote requests over all of its cores rather than funnelling them
// through one. Single-core islands (core granularity) have exactly one choice.
func (e *Engine) peer(w *islandWiring, site int, worker topology.CoreID) topology.Core {
	if site < 0 || site >= len(w.sites) {
		site = 0
	}
	if cores := w.siteCores[site]; len(cores) > 1 {
		local := 0
		if c, err := e.cfg.Topology.Core(worker); err == nil {
			local = c.LocalIndex
		}
		return cores[local%len(cores)]
	}
	return w.sites[site]
}

// sameCores reports whether an island's alive member set is exactly the given
// core slice. Member slices are contiguous runs in core order at every level,
// so comparing length and endpoints is exact.
func sameCores(a, b []topology.Core) bool {
	if len(a) != len(b) || len(a) == 0 {
		return len(a) == len(b)
	}
	return a[0].ID == b[0].ID && a[len(a)-1].ID == b[len(b)-1].ID
}

// buildWiring derives the island wiring at the given level. When prev is
// non-nil (an online re-wiring), structures owned by islands whose alive core
// sets are unchanged by the level change are carried over: their write-ahead
// logs keep their records and group-commit state. The transaction manager is
// carried over whenever the state striping is the same on both sides (both
// machine-grained or both finer), so its id sequence survives the swap.
// Every log it creates joins Engine.logs.
func (e *Engine) buildWiring(level topology.Level, epoch uint64, prev *islandWiring) *islandWiring {
	top := e.cfg.Topology
	w := &islandWiring{
		level:      level,
		epoch:      epoch,
		siteOfCore: make([]int32, top.NumCores()),
	}
	islands := top.AliveIslandsAt(level)
	homes := make([]topology.SocketID, 0, len(islands))
	homeCores := make([]topology.CoreID, 0, len(islands))
	var devs []*device.Device
	if e.devices != nil {
		devs = make([]*device.Device, 0, len(islands))
	}
	var reuse []*wal.CentralLog
	if prev != nil {
		reuse = make([]*wal.CentralLog, len(islands))
	}
	for i, isl := range islands {
		w.sites = append(w.sites, isl.Cores[0])
		w.siteCores = append(w.siteCores, isl.Cores)
		for _, c := range isl.Cores {
			w.siteOfCore[c.ID] = int32(i)
		}
		homes = append(homes, isl.Cores[0].Socket)
		homeCores = append(homeCores, isl.Cores[0].ID)
		if e.devices != nil {
			// The island's log flushes through the device serving its home
			// die, re-homed to a surviving device when that one has failed.
			// The device map outlives the wiring, so a level change
			// re-resolves the binding against the same physical devices — and
			// the log constructor re-binds any reused log whose device the
			// re-wiring moved.
			dev := e.devices.AliveDeviceFor(top.DieOf(isl.Cores[0].ID))
			if dev == nil {
				// Every device failed: keep the mapped binding rather than
				// wiring a log to nothing. Schedules cannot produce this (the
				// device map refuses to fail its last alive device).
				dev = e.devices.DeviceFor(top.DieOf(isl.Cores[0].ID))
			}
			devs = append(devs, dev)
		}
		if prev != nil {
			for j, cores := range prev.siteCores {
				if sameCores(cores, isl.Cores) {
					reuse[i] = prev.logs.Log(j)
					w.reusedLogs++
					break
				}
			}
		}
	}
	w.rebuiltLogs = len(islands) - w.reusedLogs
	w.logs = wal.NewPartitionedLogAtReusing(e.domain, homes, *e.cfg.LogConfig, devs, reuse)
	w.reboundDevices = w.logs.ReboundDevices()
	for i := range w.logs.NumLogs() {
		if i >= len(reuse) || reuse[i] == nil {
			e.logs = append(e.logs, w.logs.Log(i))
		}
	}
	if e.tracer != nil {
		// Attach every island log (reused ones take their new island's
		// index) so flush spans carry the wiring's site index.
		for i := range islands {
			w.logs.Log(i).SetTrace(e.tracer.Ring(), int32(i))
		}
	}
	w.coordinator = txn.NewCoordinatorAt(e.domain, w.logs, homeCores)
	if prev != nil && (prev.level == topology.LevelMachine) == (level == topology.LevelMachine) {
		w.txnMgr = prev.txnMgr
	} else {
		// A machine-grained island wiring is one instance: its state is central.
		perSocket := e.row.perSocket && (e.row.route != routeIsland || level != topology.LevelMachine)
		w.txnMgr = txn.NewManager(e.domain, numa.NewStriped(e.domain, perSocket), numa.NewStriped(e.domain, perSocket))
	}
	return w
}

// TopologyEpoch returns the epoch of the installed island wiring: 0 at
// construction, incremented by every online re-wiring.
func (e *Engine) TopologyEpoch() uint64 { return e.snap.wiring.epoch }

// granularityModel prices island levels on the engine's machine, log
// configuration and device layout.
func (e *Engine) granularityModel() core.GranularityModel {
	return core.GranularityModel{
		Domain:          e.domain,
		Devices:         e.devices,
		CoalesceRecords: e.cfg.LogConfig.CoalesceRecords,
	}
}

// Devices returns the engine's log-device map, or nil when no device layout
// is configured.
func (e *Engine) Devices() *device.Map { return e.devices }

// deviceList returns the layout's devices in index order, or nil when no
// layout is configured.
func (e *Engine) deviceList() []*device.Device {
	if e.devices == nil {
		return nil
	}
	return e.devices.Devices()
}

// Tracer returns the engine's span tracer, or nil when Config.Tracing is off.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// activePartitionsPerCore counts, for every core, the partitions of tables
// the workload touches at virtual time at; it drives the oversaturation
// penalty of the data-oriented designs. The result is indexed by CoreID.
func (e *Engine) activePartitionsPerCore(p *partition.Placement, at vclock.Nanos) []int32 {
	active := make(map[string]bool)
	weights := e.wl.ClassWeights(at)
	for class, w := range weights {
		if w <= 0 {
			continue
		}
		if g, ok := e.wl.Graph(class); ok {
			for _, n := range g.Nodes {
				active[n.Table] = true
			}
		}
	}
	counts := make([]int32, e.cfg.Topology.NumCores())
	for name, tp := range p.Tables {
		if len(active) > 0 && !active[name] {
			continue
		}
		for _, c := range tp.Cores {
			if int(c) >= 0 && int(c) < len(counts) {
				counts[c]++
			}
		}
	}
	return counts
}
