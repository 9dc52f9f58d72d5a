package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"atrapos/internal/engine"
	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// FuzzScenario composes one scenario from a seed — {workload, machine
// profile, device layout, island level, fault schedule} — and checks the
// standing invariants on it: the system keeps committing under faults, the
// planner converges, no site is left on dead hardware or a failed device,
// trace drops are accounted for, committed state survives a crash drill
// bit for bit, and the steady state stays allocation-free. The scenario is a
// pure function of the seed, so a failing input reproduces alone. Tier-1
// replays seeds 42-47; `make fuzz-smoke` explores past them.
func FuzzScenario(f *testing.F) {
	for seed := int64(42); seed <= 47; seed++ {
		f.Add(seed)
	}
	s := QuickScale()
	f.Fuzz(func(t *testing.T, seed int64) {
		sc, err := buildScenario(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := runScenario(s, sc, seed); err != nil {
			t.Fatalf("seed %d %s: %v", seed, sc, err)
		}
	})
}

// TestBuildScenarioDeterministic: the seed fully determines the scenario, so
// a failing fuzz input is the whole recipe.
func TestBuildScenarioDeterministic(t *testing.T) {
	s := QuickScale()
	a, err := buildScenario(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildScenario(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different scenarios:\n  %s\n  %s", a, b)
	}
	c, err := buildScenario(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Errorf("different seeds produced the same scenario: %s", a)
	}
}

// TestRandomFaultScheduleAlwaysLegal: the generator keeps only events the
// validator accepts, so schedules construct for any seed — including
// machines with no devices, where only socket events may appear.
func TestRandomFaultScheduleAlwaysLegal(t *testing.T) {
	s := QuickScale()
	for seed := int64(0); seed < 200; seed++ {
		sc, err := buildScenario(s, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.layout == "" && strings.Contains(sc.sched.String(), "device") {
			t.Errorf("seed %d scheduled a device fault with no device layout: %s", seed, sc.sched)
		}
	}
}

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
	// Everything the crash pair uses is drawn above, so the schedule's draws
	// never change a crash drill's composition.
	m := fault.Machine{Sockets: top.Sockets(), Devices: deviceCount(sc.layout, top)}
	sched, err := randomFaultSchedule(rng, m, paperSecond(2), paperSecond(30), 1+rng.Intn(4))
	if err != nil {
		return sc, fmt.Errorf("fuzz: schedule generation: %w", err)
	}
	sc.sched = sched
	// Half the scenarios trace. Spans land in one fixed pre-allocated ring; the
	// invariant tracing adds is its own drop accounting, checked after the
	// adaptive leg.
	sc.tracing = rng.Intn(2) == 0
	return sc, nil
}

// randomFaultSchedule proposes random events at each of n increasing times in
// (from, to] and keeps the first one fault.NewSchedule accepts after the
// schedule so far, so the validator alone decides what is legal. A time
// whose proposals are all refused stays empty; eight proposals make that
// rare, so restores of failed sockets still appear.
func randomFaultSchedule(rng *rand.Rand, m fault.Machine, from, to vclock.Nanos, n int) (*fault.Schedule, error) {
	times := make([]vclock.Nanos, n)
	for i := range times {
		times[i] = from + vclock.Nanos(rng.Int63n(int64(to-from)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	propose := func(at vclock.Nanos) fault.Event {
		sock := topology.SocketID(rng.Intn(m.Sockets))
		dev := rng.Intn(max(m.Devices, 1))
		switch rng.Intn(4) {
		case 0:
			return fault.FailSocket(at, sock)
		case 1:
			return fault.RestoreSocket(at, sock)
		case 2:
			return fault.FailDevice(at, dev)
		default:
			return fault.DegradeDevice(at, dev, float64(int64(2)<<rng.Intn(3))) // 2x, 4x or 8x
		}
	}
	var events []fault.Event
	for _, at := range times {
		for try := 0; try < 8; try++ {
			ev := propose(at)
			if _, err := fault.NewSchedule(m, append(events, ev)...); err == nil {
				events = append(events, ev)
				break
			}
		}
	}
	return fault.NewSchedule(m, events...)
}

// runScenario executes one composed scenario and checks every standing
// invariant; the returned error names the first violation.
func runScenario(s Scale, sc fuzzScenario, seed int64) error {
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
		// drop: the ring's drop counter has to equal its overflow exactly.
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
	// bookkeeping left over from earlier inputs adds noise a single window
	// can absorb — but a genuine per-transaction leak shows up in every rep.
	// Being process-global is also why nothing else may run beside the
	// window: a fuzz worker runs one input at a time, and no test of this
	// package runs in parallel.
	const allocTxns = 8000
	best := -1.0
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		// Two collections: the second waits out sweep work the first queued,
		// so finalizer and sweep allocations land before the window opens.
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
