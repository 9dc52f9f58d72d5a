package harness

import (
	"fmt"

	"atrapos/internal/engine"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// granularityProfile is the machine the adaptive-granularity experiment runs
// on by default; a pinned Scale.Profile overrides it.
const granularityProfile = "2s-fc"

// GranularityPhase summarizes one phase of the drifting-share scenario: the
// multisite percentage in force, the statically-best island level at that
// percentage (the fig-islands winner), and the level the adaptive engine was
// running at the end of the phase.
type GranularityPhase struct {
	MultiPct      int
	StaticBest    string
	AdaptiveLevel string
}

// GranularityTrajectory is the measured outcome of the adaptive-granularity
// scenario: where the planner started, how it re-wired the machine as the
// multisite share drifted across the crossover, and whether it tracked the
// statically-best level on either side.
type GranularityTrajectory struct {
	Profile    string
	StartLevel string
	FinalLevel string
	Committed  int64
	Phases     []GranularityPhase
	Changes    []engine.GranularityChange
}

// granularityScenario returns the drifting workload and phase layout: 0%
// multisite for the first half of the run, 100% for the second — one step
// across the island-size crossover in each direction of the granularity axis.
func granularityScenario(rows int) (*workload.Workload, vclock.Nanos, []int) {
	half := paperSecond(30)
	wl := workload.MultisiteUpdateDrifting(rows, func(at vclock.Nanos) int {
		if at < half {
			return 0
		}
		return 100
	})
	return wl, half, []int{0, 100}
}

// RunAdaptiveGranularity executes the adaptive-granularity scenario on the
// scale's profile (default 2s-fc): a parametric shared-nothing engine with
// Adaptive enabled, started deliberately at a mid-axis granularity, under a
// multisite share that drifts across the crossover. It also measures the
// statically-best level at each phase's multisite percentage, so callers (the
// fig-adaptive-granularity experiment and its test) can compare where the
// planner converged against where the offline sweep says it should.
func RunAdaptiveGranularity(s Scale) (*GranularityTrajectory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	profName := s.Profile
	if profName == "" {
		profName = granularityProfile
	}
	prof, ok := topology.ProfileByName(profName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown profile %q", profName)
	}
	wl, half, pcts := granularityScenario(s.MicroRows)
	// Start in the middle of the granularity axis (the second-coarsest level
	// the machine distinguishes — socket on a multi-socket part, die on a
	// one-socket chiplet), so convergence to either endpoint is a real move.
	levels := prof.Build().DistinctLevels()
	start := levels[len(levels)-2]
	e, err := engine.New(engine.Config{
		Design:           engine.SharedNothing,
		IslandLevel:      start,
		Workload:         wl,
		Topology:         prof.Build(),
		Adaptive:         true,
		AdaptiveInterval: adaptiveInterval(),
		TimeCompression:  timeCompression,
	})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(engine.RunOptions{
		Duration:        2 * half,
		MaxTransactions: 40 * s.Transactions,
		Seed:            s.Seed,
		SampleWindow:    adaptiveWindow,
	})
	if err != nil {
		return nil, err
	}
	// The static baseline: every level at each phase's multisite percentage,
	// one fixed-level row per phase.
	rows := make([]cell, len(pcts))
	for i, pct := range pcts {
		rows[i] = cell{prof: prof, pct: pct}
	}
	static, err := sweep(s, "static baseline", rows)
	if err != nil {
		return nil, err
	}

	out := &GranularityTrajectory{
		Profile:    prof.Name,
		StartLevel: start.String(),
		FinalLevel: res.IslandLevel,
		Committed:  res.Committed,
		Changes:    res.LevelChanges,
	}

	// levelAt replays the trajectory to find the level in force at a time.
	levelAt := func(at vclock.Nanos) topology.Level {
		level := start
		for _, lc := range res.LevelChanges {
			if lc.At <= at {
				level = lc.To
			}
		}
		return level
	}
	for i, pct := range pcts {
		phaseEnd := vclock.Nanos(i+1) * half
		out.Phases = append(out.Phases, GranularityPhase{
			MultiPct:      pct,
			StaticBest:    bestPoint(static[i]).level.String(),
			AdaptiveLevel: levelAt(phaseEnd).String(),
		})
	}
	return out, nil
}

// FigAdaptiveGranularity is the adaptive-granularity experiment: the
// multisite share of the microbenchmark drifts across the island-size
// crossover, and the parametric shared-nothing engine — with the planner
// proposing island-level changes off the hot path — is expected to track the
// statically-best granularity on either side.
func FigAdaptiveGranularity(s Scale) (*Table, error) {
	traj, err := RunAdaptiveGranularity(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig-adaptive-granularity",
		Title:  "Online island-level adaptation as the multisite share drifts across the crossover",
		Header: []string{"phase", "% multi-site", "static best", "adaptive level", "tracked"},
		Notes: []string{
			fmt.Sprintf("Profile %s; engine deliberately started at %s granularity; %d committed transactions.",
				traj.Profile, traj.StartLevel, traj.Committed),
		},
	}
	for i, ph := range traj.Phases {
		tracked := "yes"
		if ph.AdaptiveLevel != ph.StaticBest {
			tracked = "NO"
		}
		t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", ph.MultiPct), ph.StaticBest, ph.AdaptiveLevel, tracked)
	}
	if len(traj.Changes) == 0 {
		t.Notes = append(t.Notes, "no level changes occurred")
	}
	for _, lc := range traj.Changes {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"t=%.0f: %s -> %s at measured multisite share %.2f; %d cores paused, logs %d reused/%d rebuilt, lock tables %d reused/%d rebuilt",
			float64(lc.At)/float64(adaptiveWindow), lc.From, lc.To, lc.MultisiteShare,
			lc.AffectedCores, lc.ReusedLogs, lc.RebuiltLogs, lc.ReusedLockTables, lc.RebuiltLockTables))
	}
	return t, nil
}

// tracedDriftProfile is the machine of the traced adaptive drift run: the
// two-socket four-die chiplet part, whose die level gives the planner a real
// mid-axis granularity to move through.
const tracedDriftProfile = "chiplet-2s4d"

// TracedDriftResult is the outcome of RunTracedDrift: the level trajectory
// plus the trace's own accounting, so callers (the bench CLI, CI smoke, the
// determinism oracle) can validate what was exported.
type TracedDriftResult struct {
	Trajectory *GranularityTrajectory
	// Trace and Metrics are the exported documents, byte-identical to the
	// files written at TracePath/MetricsPath.
	Trace   []byte
	Metrics []byte
	// Decisions is how many planner decisions the trace explains; DroppedSpans
	// is the tracer's overflow count (0 unless a ring filled up).
	Decisions    int
	DroppedSpans int64
}

// RunTracedDrift executes the adaptive-granularity drift scenario with the
// span tracer enabled and exports the trace and metrics documents (also to
// tracePath/metricsPath when non-empty). The virtual timeline, and therefore
// the exported trace, is bit-identical on any host and at any Scale.Parallel
// fan-out.
func RunTracedDrift(s Scale, tracePath, metricsPath string) (*TracedDriftResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	profName := s.Profile
	if profName == "" {
		profName = tracedDriftProfile
	}
	prof, ok := topology.ProfileByName(profName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown profile %q", profName)
	}
	wl, half, _ := granularityScenario(s.MicroRows)
	levels := prof.Build().DistinctLevels()
	start := levels[len(levels)-2]
	e, err := engine.New(engine.Config{
		Design:           engine.SharedNothing,
		IslandLevel:      start,
		Workload:         wl,
		Topology:         prof.Build(),
		Adaptive:         true,
		AdaptiveInterval: adaptiveInterval(),
		TimeCompression:  timeCompression,
		Tracing:          true,
	})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(engine.RunOptions{
		Duration:        2 * half,
		MaxTransactions: 40 * s.Transactions,
		Seed:            s.Seed,
		SampleWindow:    adaptiveWindow,
		TracePath:       tracePath,
		MetricsPath:     metricsPath,
	})
	if err != nil {
		return nil, err
	}
	tr := e.Tracer()
	if msg := tr.DropAccounting(); msg != "" {
		return nil, fmt.Errorf("harness: trace drop accounting violated: %s", msg)
	}
	out := &TracedDriftResult{
		Trajectory: &GranularityTrajectory{
			Profile:    prof.Name,
			StartLevel: start.String(),
			FinalLevel: res.IslandLevel,
			Committed:  res.Committed,
			Changes:    res.LevelChanges,
		},
		Trace:        tr.ExportChromeTrace(),
		Metrics:      tr.ExportMetricsCSV(),
		Decisions:    len(tr.Decisions()),
		DroppedSpans: tr.Dropped(),
	}
	if err := obs.ValidateChromeTrace(out.Trace); err != nil {
		return nil, fmt.Errorf("harness: exported trace invalid: %w", err)
	}
	if err := obs.ValidateMetricsCSV(out.Metrics); err != nil {
		return nil, fmt.Errorf("harness: exported metrics invalid: %w", err)
	}
	return out, nil
}
