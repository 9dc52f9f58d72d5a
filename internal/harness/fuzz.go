package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"atrapos/internal/device"
	"atrapos/internal/engine"
	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// FuzzOptions configures the scenario fuzzer.
type FuzzOptions struct {
	// Scenarios is how many composed scenarios to run; zero means 25.
	Scenarios int
	// Seed is the base seed; scenario i derives everything from Seed+i, so any
	// failing scenario reproduces alone with Scenarios=1, Seed=Seed+i.
	Seed int64
	// Scale sizes the datasets and transaction counts; the zero value means
	// QuickScale.
	Scale Scale
	// Parallel is how many scenarios run concurrently through the harness
	// pool (0 or 1 = serial). Scenario verdicts are seed-deterministic at any
	// concurrency: each scenario derives everything from its own seed, and
	// the process-global allocs/txn measurement runs under the pool's
	// allocation token, which excludes every other in-flight scenario.
	Parallel int
}

// FuzzFailure is one scenario whose invariants did not hold, with the minimal
// reproducer: the scenario is fully determined by its seed, so one flag pair
// replays it.
type FuzzFailure struct {
	Scenario  int
	Seed      int64
	Descr     string
	Reproduce string
	Err       string
}

// FuzzReport summarizes a fuzzer run.
type FuzzReport struct {
	Scenarios int
	Failures  []FuzzFailure
}

// Failed reports whether any scenario violated an invariant.
func (r *FuzzReport) Failed() bool { return len(r.Failures) > 0 }

// fuzzScenario is one composed scenario: a machine, a storage shape, a
// workload, a starting island granularity, a fault schedule for the adaptive
// run, and a design for the serial crash-drill pair.
type fuzzScenario struct {
	profile     topology.Profile
	layout      string
	wl          *workload.Workload
	wlName      string
	level       topology.Level
	crashDesign engine.Design
	sched       *fault.Schedule
	// coalesce is the write-combining accumulator's record threshold for both
	// the adaptive run and the crash-drill pair; zero runs the plain log.
	coalesce int
	// tracing runs the adaptive leg with the span tracer enabled; its drop
	// accounting is then a checked invariant.
	tracing bool
	// txnScale multiplies the adaptive run's transaction cap. The cap exists
	// to bound real runtime, but it must still let virtual time cross the
	// whole fault schedule: single-op workloads (YCSB) advance virtual time
	// roughly ten times slower per transaction than the ten-op
	// microbenchmarks the cap was sized for, so they get a matching multiple
	// or a late fault event fires with no planner boundary left to re-wire.
	txnScale int
}

func (sc fuzzScenario) String() string {
	return fmt.Sprintf("profile=%s layout=%q workload=%s level=%s crash=%s coalesce=%d trace=%t faults=%s",
		sc.profile.Name, sc.layout, sc.wlName, sc.level, sc.crashDesign, sc.coalesce, sc.tracing, sc.sched)
}

// fuzzProfiles are the machine shapes the fuzzer composes over: a flat
// 2-socket box, a chiplet part with four dies per socket, and a sub-NUMA
// 4-socket machine — together they cover every island level.
var fuzzProfiles = []string{"2s-fc", "chiplet-2s4d", "subnuma-4s2d"}

// fuzzLayouts are the storage shapes, including running without device
// modeling at all (device faults are then never scheduled).
var fuzzLayouts = []string{"", "nvme-per-socket", "nvme-per-die-pair", "single-sata"}

// buildScenario derives a scenario from one seed. Everything — profile,
// layout, workload, level, schedule — comes from the seeded generator, so the
// seed is the whole reproducer.
func buildScenario(s Scale, seed int64) (fuzzScenario, error) {
	rng := rand.New(rand.NewSource(seed))
	var sc fuzzScenario
	profName := fuzzProfiles[rng.Intn(len(fuzzProfiles))]
	prof, ok := topology.ProfileByName(profName)
	if !ok {
		return sc, fmt.Errorf("fuzz: unknown profile %q", profName)
	}
	sc.profile = prof
	sc.layout = fuzzLayouts[rng.Intn(len(fuzzLayouts))]
	sc.txnScale = 1
	switch pick := rng.Intn(7); pick {
	case 4:
		sc.wl = workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers})
		sc.wlName = "TATP"
	case 5:
		sc.wl = workload.ZipfHotkey(s.MicroRows, 10, 30)
		sc.wlName = "ZipfHotkey(10%,30%)"
	case 6:
		mix := workload.YCSBMix(rng.Intn(3))
		sc.wl = workload.YCSB(s.MicroRows, mix)
		sc.wlName = fmt.Sprintf("YCSB(%s)", mix)
		sc.txnScale = 10
	default:
		pct := []int{0, 10, 50, 100}[pick]
		sc.wl = workload.MultisiteUpdate(s.MicroRows, pct)
		sc.wlName = fmt.Sprintf("MultisiteUpdate(%d%%)", pct)
	}
	// Half the scenarios coalesce; the other half keep the plain log so the
	// bit-identical-off path stays fuzzed too. Thresholds sit above the
	// per-transaction distinct-key count: a threshold below it degrades to one
	// physical flush per commit, which is the (modeled) mistuned regime the
	// fig-group-commit sweep covers deliberately, not a fuzz invariant.
	sc.coalesce = []int{0, 0, 64, 128, 256}[rng.Intn(5)]
	top := prof.Build()
	levels := top.DistinctLevels()
	sc.level = levels[rng.Intn(len(levels))]
	if rng.Intn(2) == 0 {
		sc.crashDesign = engine.Centralized
	} else {
		sc.crashDesign = engine.SharedNothing
	}
	sched, err := randomFaultSchedule(rng, top.Sockets(), deviceCount(sc.layout, top), paperSecond(2), paperSecond(30), 1+rng.Intn(4))
	if err != nil {
		return sc, fmt.Errorf("fuzz: schedule generation: %w", err)
	}
	sc.sched = sched
	// Half the scenarios trace. Drawn last so the tracing flag never perturbs
	// the scenario composition of pre-existing seeds. Spans land in fixed
	// pre-allocated rings; the invariant tracing adds is its own drop
	// accounting, checked after the adaptive leg.
	sc.tracing = rng.Intn(2) == 0
	return sc, nil
}

// deviceCount is how many devices a layout provisions on a machine (0 without
// device modeling); the schedule validator needs the count before any engine
// exists.
func deviceCount(layout string, top *topology.Topology) int {
	lay, ok := device.LayoutByName(layout)
	if !ok {
		return 0
	}
	return lay.Build(top).NumDevices()
}

// randomFaultSchedule generates a legal schedule of n events at increasing
// times in (from, to]: it mirrors the validator's state machine (never failing
// a failed or last-alive target, never degrading a failed device), so the
// result always constructs.
func randomFaultSchedule(rng *rand.Rand, sockets, devices int, from, to vclock.Nanos, n int) (*fault.Schedule, error) {
	times := make([]vclock.Nanos, n)
	for i := range times {
		times[i] = from + vclock.Nanos(rng.Int63n(int64(to-from)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	deadSockets := make([]bool, sockets)
	deadDevices := make([]bool, devices)
	aliveSockets, aliveDevices := sockets, devices
	pick := func(dead []bool, want bool) int {
		idx := make([]int, 0, len(dead))
		for i, d := range dead {
			if d == want {
				idx = append(idx, i)
			}
		}
		return idx[rng.Intn(len(idx))]
	}
	var events []fault.Event
	for _, at := range times {
		var kinds []fault.Kind
		if aliveSockets > 1 {
			kinds = append(kinds, fault.KindFailSocket)
		}
		if aliveSockets < sockets {
			kinds = append(kinds, fault.KindRestoreSocket)
		}
		if aliveDevices > 1 {
			kinds = append(kinds, fault.KindFailDevice)
		}
		if aliveDevices > 0 {
			kinds = append(kinds, fault.KindDegradeDevice)
		}
		if len(kinds) == 0 {
			continue
		}
		switch kinds[rng.Intn(len(kinds))] {
		case fault.KindFailSocket:
			s := pick(deadSockets, false)
			deadSockets[s] = true
			aliveSockets--
			events = append(events, fault.FailSocket(at, topology.SocketID(s)))
		case fault.KindRestoreSocket:
			s := pick(deadSockets, true)
			deadSockets[s] = false
			aliveSockets++
			events = append(events, fault.RestoreSocket(at, topology.SocketID(s)))
		case fault.KindFailDevice:
			d := pick(deadDevices, false)
			deadDevices[d] = true
			aliveDevices--
			events = append(events, fault.FailDevice(at, d))
		case fault.KindDegradeDevice:
			d := pick(deadDevices, false)
			factor := float64(int64(2) << rng.Intn(3)) // 2x, 4x or 8x
			events = append(events, fault.DegradeDevice(at, d, factor))
		}
	}
	return fault.NewSchedule(fault.Machine{Sockets: sockets, Devices: devices}, events...)
}

// runScenario executes one composed scenario and checks every standing
// invariant; the returned error names the first violation. The pool supplies
// the allocation token serializing the process-global allocs/txn window; the
// caller must be a running point of that pool.
func runScenario(pool *Pool, s Scale, sc fuzzScenario, seed int64) error {
	// 1. The adaptive run under the fault schedule: the system must keep
	// committing, and once the timeline settles the wiring must have converged
	// onto the surviving hardware with no site on dead sockets and no island
	// log on failed devices.
	cfg := adaptive(engine.Config{
		Design:       engine.SharedNothing,
		IslandLevel:  sc.level,
		Workload:     sc.wl,
		Topology:     sc.profile.Build(),
		DeviceLayout: sc.layout,
		Tracing:      sc.tracing,
	})
	if sc.coalesce > 0 {
		lc := wal.DefaultConfig()
		lc.CoalesceRecords = sc.coalesce
		lc.CoalesceMaxAge = paperSecond(2)
		cfg.LogConfig = &lc
	}
	e, err := engine.New(cfg)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	opts := s.seriesOptions(paperSecond(45))
	opts.Transactions = 40 * s.Transactions * sc.txnScale
	opts.Seed, opts.Faults = seed, sc.sched
	res, err := e.Run(opts)
	if err != nil {
		return fmt.Errorf("faulted run: %w", err)
	}
	if res.Committed == 0 {
		return fmt.Errorf("faulted run committed nothing")
	}
	if !e.WiringConverged() {
		// Convergence is an eventually-property: the faulted run can hit its
		// transaction cap moments after the last fault, before the planner's
		// next monitoring boundary. Give the settled (still-faulted) timeline
		// one more boundary before calling the verdict — a planner that truly
		// cannot re-wire onto the surviving hardware still fails here.
		if _, err := e.Run(engine.RunOptions{Transactions: 2000 * sc.txnScale, Seed: seed + 2}); err != nil {
			return fmt.Errorf("convergence settling run: %w", err)
		}
		if !e.WiringConverged() {
			return fmt.Errorf("wiring did not converge after the schedule")
		}
	}
	top := e.Topology()
	if err := e.Placement().ValidateAlive(top); err != nil {
		return fmt.Errorf("placement on dead hardware: %w", err)
	}
	if err := e.Placement().ValidateAliveDevices(top, e.Devices()); err != nil {
		return fmt.Errorf("placement on failed device: %w", err)
	}
	if sc.tracing {
		// Every traced scenario must either drop nothing or account for every
		// drop: each ring's drop counter has to equal its overflow exactly.
		if msg := e.Tracer().DropAccounting(); msg != "" {
			return fmt.Errorf("trace drop accounting violated: %s", msg)
		}
	}

	// 2. Crash-drill pair: a serial run interrupted by a crash-and-recover
	// drill must end with exactly the committed state of its fault-free twin.
	if err := runCrashPair(sc, seed); err != nil {
		return err
	}

	// 3. Steady state stays allocation-free: restore the hardware and measure
	// a fault-free run on the already-warm engine. The budget covers per-run
	// bookkeeping (result assembly, samples, the re-wire back onto the
	// restored hardware), not per-transaction allocations.
	for sock := 0; sock < top.Sockets(); sock++ {
		if !top.Alive(topology.SocketID(sock)) {
			if err := e.RestoreSocket(topology.SocketID(sock)); err != nil {
				return fmt.Errorf("restoring socket %d: %w", sock, err)
			}
		}
	}
	if devs := e.Devices(); devs != nil {
		devs.ResetFaults()
	}
	// A settling run first: the planner re-expands onto the restored hardware
	// at its next boundary, and that one-off re-wiring (like any level change)
	// legitimately allocates. The measured run after it sees steady state.
	if _, err := e.Run(engine.RunOptions{Transactions: 2000, Seed: seed + 1}); err != nil {
		return fmt.Errorf("alloc-check settling run: %w", err)
	}
	// Three measured runs, best taken: a residual one-off planner re-wiring
	// can land inside a measured window, and Mallocs is process-global — GC
	// bookkeeping left over from earlier scenarios in a batch adds noise a
	// single window can absorb — but a genuine per-transaction leak shows up
	// in every rep. Mallocs being process-global is also why the whole
	// measured section runs under the pool's allocation token: a concurrent
	// scenario's allocations inside the window would fail the invariant for
	// this one, so the token drains every other in-flight point first and
	// holds new ones back until the reps finish.
	const allocTxns = 8000
	return pool.WithAllocToken(func() error {
		best := -1.0
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			// Two collections: the second waits out sweep work the first
			// queued, so finalizer and sweep allocations land before the
			// window opens.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			allocRes, err := e.Run(engine.RunOptions{Transactions: allocTxns, Seed: seed + 2 + int64(rep)})
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("alloc-check run: %w", err)
			}
			n := allocRes.Committed + allocRes.Aborted
			if n == 0 {
				return fmt.Errorf("alloc-check run committed nothing")
			}
			perTxn := float64(after.Mallocs-before.Mallocs) / float64(n)
			if best < 0 || perTxn < best {
				best = perTxn
			}
		}
		if best >= 0.5 {
			return fmt.Errorf("steady state allocates: %.3f allocs/txn over %d txns", best, allocTxns)
		}
		return nil
	})
}

// runCrashPair runs the committed-state-equivalence drill: a fault-free
// serial reference, then an identical run crashed mid-way and recovered from
// the write-ahead logs. Key sets (the state redo records define) must match.
func runCrashPair(sc fuzzScenario, seed int64) error {
	lc := wal.DefaultConfig()
	lc.Keep = 0 // the drill replays the full history
	// Both twins coalesce identically, so the drill checks that recovery from
	// net-delta flushes reproduces exactly the fault-free committed state.
	lc.CoalesceRecords = sc.coalesce
	build := func() (*engine.Engine, error) {
		cfg := engine.Config{
			Design:    sc.crashDesign,
			Workload:  sc.wl,
			Topology:  sc.profile.Build(),
			LogConfig: &lc,
		}
		if sc.crashDesign == engine.SharedNothing {
			cfg.IslandLevel = sc.level
			cfg.DeviceLayout = sc.layout
		}
		return engine.New(cfg)
	}
	const txns = 1000
	ref, err := build()
	if err != nil {
		return fmt.Errorf("crash reference engine: %w", err)
	}
	refRes, err := ref.Run(engine.RunOptions{Transactions: txns, Seed: seed})
	if err != nil {
		return fmt.Errorf("crash reference run: %w", err)
	}
	if refRes.Aborted != 0 {
		return fmt.Errorf("serial reference aborted %d transactions", refRes.Aborted)
	}
	ndev := 0
	if sc.crashDesign == engine.SharedNothing {
		ndev = deviceCount(sc.layout, sc.profile.Build())
	}
	sched, err := fault.NewSchedule(
		fault.Machine{Sockets: sc.profile.Build().Sockets(), Devices: ndev},
		fault.CrashAndRecover(refRes.VirtualTime/2))
	if err != nil {
		return fmt.Errorf("crash schedule: %w", err)
	}
	drill, err := build()
	if err != nil {
		return fmt.Errorf("crash drill engine: %w", err)
	}
	drillRes, err := drill.Run(engine.RunOptions{Transactions: txns, Seed: seed, Faults: sched})
	if err != nil {
		return fmt.Errorf("crash drill run: %w", err)
	}
	if drillRes.Committed != refRes.Committed {
		return fmt.Errorf("crash drill committed %d, fault-free twin %d", drillRes.Committed, refRes.Committed)
	}
	if where, ok := fuzzKeySetsEqual(ref.TableKeySets(), drill.TableKeySets()); !ok {
		return fmt.Errorf("post-recovery state differs from the fault-free twin at %s", where)
	}
	return nil
}

func fuzzKeySetsEqual(a, b map[string][]schema.Key) (string, bool) {
	if len(a) != len(b) {
		return "table count", false
	}
	for name, ka := range a {
		kb, ok := b[name]
		if !ok || len(ka) != len(kb) {
			return name, false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return name, false
			}
		}
	}
	return "", true
}

// FuzzScenarios composes and runs seeded random scenarios — {workload,
// machine profile, device layout, fault schedule} — and checks the standing
// invariants on every one: the system keeps committing under faults, no site
// is left on dead hardware or a failed device, the planner converges,
// committed state survives a crash drill bit-for-bit, and the steady state
// stays allocation-free. Failures carry a minimal reproducer (the scenario's
// own seed).
func FuzzScenarios(opts FuzzOptions) (*FuzzReport, error) {
	if opts.Scenarios <= 0 {
		opts.Scenarios = 25
	}
	s := opts.Scale
	if s.Transactions == 0 {
		s = QuickScale()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	report := &FuzzReport{Scenarios: opts.Scenarios}
	// One pool point per scenario. Verdicts land in per-scenario slots and
	// are compacted in submission order afterwards, so the failure list is
	// identical at any concurrency; scenario construction errors are harness
	// bugs and abort via the joined pool error.
	pool := NewPool(opts.Parallel)
	verdicts := make([]*FuzzFailure, opts.Scenarios)
	jobs := make([]PointFn, opts.Scenarios)
	for i := 0; i < opts.Scenarios; i++ {
		jobs[i] = func() error {
			seed := opts.Seed + int64(i)
			sc, err := buildScenario(s, seed)
			if err != nil {
				return err
			}
			if err := runScenario(pool, s, sc, seed); err != nil {
				verdicts[i] = &FuzzFailure{
					Scenario:  i,
					Seed:      seed,
					Descr:     sc.String(),
					Reproduce: fmt.Sprintf("go run ./cmd/atrapos-bench -fuzz 1 -seed %d", seed),
					Err:       err.Error(),
				}
			}
			return nil
		}
	}
	if err := pool.Run(jobs); err != nil {
		return nil, err
	}
	for _, f := range verdicts {
		if f != nil {
			report.Failures = append(report.Failures, *f)
		}
	}
	return report, nil
}
