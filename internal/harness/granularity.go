package harness

import (
	"fmt"

	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// granularityProfile is the machine the adaptive-granularity experiment runs
// on by default; a pinned Scale.Profile overrides it.
const granularityProfile = "2s-fc"

// ScoreTermsRecord is the JSON-friendly rendering of one granularity-scorer
// per-term breakdown: the level it prices and the five additive terms whose
// sum is the total (lower is better).
type ScoreTermsRecord struct {
	Level    string  `json:"level"`
	Total    float64 `json:"total"`
	Locality float64 `json:"locality"`
	TxnState float64 `json:"txn_state"`
	Commit   float64 `json:"commit"`
	Conflict float64 `json:"conflict"`
	Comm     float64 `json:"comm"`
}

// GranularityChangeRecord is the JSON-friendly rendering of one online
// island-level change, as appended to the BENCH.json trajectory.
type GranularityChangeRecord struct {
	AtNanos           int64   `json:"at_nanos"`
	From              string  `json:"from"`
	To                string  `json:"to"`
	MultisiteShare    float64 `json:"multisite_share"`
	Cost              int64   `json:"cost"`
	AffectedCores     int     `json:"affected_cores"`
	ReusedLogs        int     `json:"reused_logs"`
	RebuiltLogs       int     `json:"rebuilt_logs"`
	ReusedLockTables  int     `json:"reused_lock_tables"`
	RebuiltLockTables int     `json:"rebuilt_lock_tables"`
	// WinnerScores and RunnerUpScores are the scorer's per-term breakdowns
	// for the level switched to and the best rejected alternative — the
	// explanation of the decision. Pointers so pre-existing documents (and
	// the strict -verify decoder) stay compatible: absent means an older
	// recording.
	WinnerScores   *ScoreTermsRecord `json:"winner_scores,omitempty"`
	RunnerUpScores *ScoreTermsRecord `json:"runner_up_scores,omitempty"`
}

// scoreTermsRecord converts a core.LevelBreakdown; nil for the zero value
// (a breakdown that was never computed, e.g. a record written before the
// scorer exported terms).
func scoreTermsRecord(b core.LevelBreakdown) *ScoreTermsRecord {
	if !b.Level.Valid() {
		return nil
	}
	return &ScoreTermsRecord{
		Level:    b.Level.String(),
		Total:    b.Total,
		Locality: b.Locality,
		TxnState: b.TxnState,
		Commit:   b.Commit,
		Conflict: b.Conflict,
		Comm:     b.Comm,
	}
}

// GranularityPhase summarizes one phase of the drifting-share scenario: the
// multisite percentage in force, the statically-best island level at that
// percentage (the fig-islands winner), and the level the adaptive engine was
// running at the end of the phase.
type GranularityPhase struct {
	MultiPct      int    `json:"multisite_pct"`
	StaticBest    string `json:"static_best"`
	AdaptiveLevel string `json:"adaptive_level"`
}

// GranularityTrajectory is the measured outcome of the adaptive-granularity
// scenario: where the planner started, how it re-wired the machine as the
// multisite share drifted across the crossover, and whether it tracked the
// statically-best level on either side.
type GranularityTrajectory struct {
	Profile    string                    `json:"profile"`
	StartLevel string                    `json:"start_level"`
	FinalLevel string                    `json:"final_level"`
	Committed  int64                     `json:"committed"`
	Phases     []GranularityPhase        `json:"phases"`
	Changes    []GranularityChangeRecord `json:"level_changes"`
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
// fig-adaptive-granularity experiment, its test, and the BENCH.json
// trajectory) can compare where the planner converged against where the
// offline sweep says it should.
func RunAdaptiveGranularity(s Scale) (*GranularityTrajectory, error) {
	return RunAdaptiveGranularityFrom(s, nil)
}

// RunAdaptiveGranularityFrom is RunAdaptiveGranularity with optionally
// precomputed island-sweep points: when static contains a point for this
// profile at a phase's multisite percentage and level, it is used instead of
// re-running the measurement — the BENCH.json recorder passes the sweep it
// already ran.
func RunAdaptiveGranularityFrom(s Scale, static []IslandPoint) (*GranularityTrajectory, error) {
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
	// Measure the static baseline's cells that the precomputed sweep does not
	// cover, fanned through the harness pool: each missing (pct, level) cell
	// is one independent fixed-level point.
	static, err = fillStaticPoints(s, prof, pcts, static)
	if err != nil {
		return nil, err
	}

	out := &GranularityTrajectory{
		Profile:    prof.Name,
		StartLevel: start.String(),
		FinalLevel: res.IslandLevel,
		Committed:  res.Committed,
	}
	for _, lc := range res.LevelChanges {
		out.Changes = append(out.Changes, GranularityChangeRecord{
			AtNanos:           int64(lc.At),
			From:              lc.From.String(),
			To:                lc.To.String(),
			MultisiteShare:    lc.MultisiteShare,
			Cost:              int64(lc.Cost),
			AffectedCores:     lc.AffectedCores,
			ReusedLogs:        lc.ReusedLogs,
			RebuiltLogs:       lc.RebuiltLogs,
			ReusedLockTables:  lc.ReusedLockTables,
			RebuiltLockTables: lc.RebuiltLockTables,
			WinnerScores:      scoreTermsRecord(lc.WinnerScores),
			RunnerUpScores:    scoreTermsRecord(lc.RunnerUpScores),
		})
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
		best, err := staticBestLevel(s, prof, pct, static)
		if err != nil {
			return nil, err
		}
		phaseEnd := vclock.Nanos(i+1) * half
		out.Phases = append(out.Phases, GranularityPhase{
			MultiPct:      pct,
			StaticBest:    best.String(),
			AdaptiveLevel: levelAt(phaseEnd).String(),
		})
	}
	return out, nil
}

// fillStaticPoints extends a precomputed island sweep with every (pct, level)
// cell of the static baseline it does not already cover, measuring the
// missing cells concurrently through the harness pool.
func fillStaticPoints(s Scale, prof topology.Profile, pcts []int, static []IslandPoint) ([]IslandPoint, error) {
	type cell struct {
		pct   int
		level topology.Level
	}
	var missing []cell
	for _, pct := range pcts {
		for _, level := range prof.Levels() {
			if _, ok := findIslandPoint(static, prof.Name, pct, level.String()); !ok {
				missing = append(missing, cell{pct, level})
			}
		}
	}
	if len(missing) == 0 {
		return static, nil
	}
	measured := make([]IslandPoint, len(missing))
	jobs := make([]PointFn, len(missing))
	for i, c := range missing {
		jobs[i] = func() error {
			pt, err := RunIslandPoint(s, prof, c.level, c.pct)
			if err != nil {
				return fmt.Errorf("static baseline %s/%s/%d%%: %w", prof.Name, c.level, c.pct, err)
			}
			measured[i] = pt
			return nil
		}
	}
	if err := s.pool().Run(jobs); err != nil {
		return nil, err
	}
	return append(static, measured...), nil
}

// staticBestLevel finds the island level with the highest throughput at a
// fixed multisite percentage — the per-column winner of fig-islands. Levels
// present in the precomputed points are taken from there; the rest are
// measured.
func staticBestLevel(s Scale, prof topology.Profile, pct int, static []IslandPoint) (topology.Level, error) {
	best, bestTPS := topology.Level(0), -1.0
	for _, level := range prof.Levels() {
		pt, ok := findIslandPoint(static, prof.Name, pct, level.String())
		if !ok {
			var err error
			pt, err = RunIslandPoint(s, prof, level, pct)
			if err != nil {
				return 0, err
			}
		}
		if pt.TPS > bestTPS {
			bestTPS = pt.TPS
			lvl, err := topology.ParseLevel(pt.Level)
			if err != nil {
				return 0, err
			}
			best = lvl
		}
	}
	return best, nil
}

// findIslandPoint looks a (profile, pct, level) cell up in a measured sweep.
func findIslandPoint(points []IslandPoint, profile string, pct int, level string) (IslandPoint, bool) {
	for _, pt := range points {
		if pt.Profile == profile && pt.MultiPct == pct && pt.Level == level {
			return pt, true
		}
	}
	return IslandPoint{}, false
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
			float64(lc.AtNanos)/float64(adaptiveWindow), lc.From, lc.To, lc.MultisiteShare,
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
		},
		Trace:        tr.ExportChromeTrace(),
		Metrics:      tr.ExportMetricsCSV(),
		Decisions:    len(tr.Decisions()),
		DroppedSpans: tr.Dropped(),
	}
	for _, lc := range res.LevelChanges {
		out.Trajectory.Changes = append(out.Trajectory.Changes, GranularityChangeRecord{
			AtNanos:           int64(lc.At),
			From:              lc.From.String(),
			To:                lc.To.String(),
			MultisiteShare:    lc.MultisiteShare,
			Cost:              int64(lc.Cost),
			AffectedCores:     lc.AffectedCores,
			ReusedLogs:        lc.ReusedLogs,
			RebuiltLogs:       lc.RebuiltLogs,
			ReusedLockTables:  lc.ReusedLockTables,
			RebuiltLockTables: lc.RebuiltLockTables,
			WinnerScores:      scoreTermsRecord(lc.WinnerScores),
			RunnerUpScores:    scoreTermsRecord(lc.RunnerUpScores),
		})
	}
	if err := obs.ValidateChromeTrace(out.Trace); err != nil {
		return nil, fmt.Errorf("harness: exported trace invalid: %w", err)
	}
	if err := obs.ValidateMetricsCSV(out.Metrics); err != nil {
		return nil, fmt.Errorf("harness: exported metrics invalid: %w", err)
	}
	return out, nil
}
