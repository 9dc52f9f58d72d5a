package harness

import (
	"fmt"
	"os"

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
	Changes    []engine.RepartitionDiff
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

// driftRun is one execution of the drifting-share scenario: the machine, the
// start level, the phase layout, the engine (for its tracer) and the trajectory.
type driftRun struct {
	prof  topology.Profile
	start topology.Level
	half  vclock.Nanos
	pcts  []int
	e     *engine.Engine
	traj  *GranularityTrajectory
}

// runDrift executes the drifting-share scenario on the scale's profile (def
// unless pinned): a parametric shared-nothing engine with the planner enabled,
// started deliberately in the middle of the granularity axis (the
// second-coarsest level the machine distinguishes — socket on a multi-socket
// part, die on a one-socket chiplet), so convergence to either endpoint is a
// real move. tracing enables the span tracer.
func runDrift(s Scale, def string, tracing bool) (*driftRun, error) {
	prof, err := s.profile(def)
	if err != nil {
		return nil, err
	}
	wl, half, pcts := granularityScenario(s.MicroRows)
	top := prof.Build()
	levels := top.DistinctLevels()
	start := levels[len(levels)-2]
	e, err := engine.New(adaptive(engine.Config{
		Design:      engine.SharedNothing,
		IslandLevel: start,
		Workload:    wl,
		Topology:    top,
		Tracing:     tracing,
	}))
	if err != nil {
		return nil, err
	}
	res, err := runSeries(e, s.seriesOptions(2*half))
	if err != nil {
		return nil, err
	}
	return &driftRun{prof: prof, start: start, half: half, pcts: pcts, e: e, traj: &GranularityTrajectory{
		Profile:    prof.Name,
		StartLevel: start.String(),
		FinalLevel: res.IslandLevel,
		Committed:  res.Committed,
		Changes:    res.RepartitionDiffs,
	}}, nil
}

// RunAdaptiveGranularity executes the adaptive-granularity scenario on the
// scale's profile (default 2s-fc) and measures the statically-best level at
// each phase's multisite percentage, so callers (the fig-adaptive-granularity
// experiment and its test) can compare where the planner converged against
// where the offline sweep says it should.
func RunAdaptiveGranularity(s Scale) (*GranularityTrajectory, error) {
	run, err := runDrift(s, granularityProfile, false)
	if err != nil {
		return nil, err
	}
	// The static baseline: every level at each phase's multisite percentage,
	// one fixed-level row per phase.
	rows := make([]cell, len(run.pcts))
	for i, pct := range run.pcts {
		rows[i] = cell{prof: run.prof, pct: pct}
	}
	static, err := runGrid(s, "fig-adaptive-granularity static baseline", levelGrid(s, rows))
	if err != nil {
		return nil, err
	}
	out := run.traj
	// levelAt replays the trajectory to find the level in force at a time.
	levelAt := func(at vclock.Nanos) topology.Level {
		level := run.start
		for _, lc := range out.Changes {
			if lc.At <= at {
				level = lc.To
			}
		}
		return level
	}
	for i, pct := range run.pcts {
		phaseEnd := vclock.Nanos(i+1) * run.half
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
			"t=%.0f: %s -> %s at measured multisite share %.2f; %d cores paused, logs %d reused/%d rebuilt",
			float64(lc.At)/float64(adaptiveWindow), lc.From, lc.To, lc.MultisiteShare,
			lc.AffectedCores, lc.ReusedLogs, lc.RebuiltLogs))
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
	// files written at tracePath/metricsPath.
	Trace   []byte
	Metrics []byte
	// Decisions is how many planner decisions the trace explains; DroppedSpans
	// is the tracer's overflow count (0 unless the ring filled up).
	Decisions    int
	DroppedSpans int64
}

// RunTracedDrift executes the adaptive-granularity drift scenario with the
// span tracer enabled and exports the trace and metrics documents (also to
// tracePath/metricsPath when non-empty). The virtual timeline, and therefore
// the exported trace, is bit-identical on any host and at any Scale.Parallel
// fan-out.
func RunTracedDrift(s Scale, tracePath, metricsPath string) (*TracedDriftResult, error) {
	run, err := runDrift(s, tracedDriftProfile, true)
	if err != nil {
		return nil, err
	}
	tr := run.e.Tracer()
	out := &TracedDriftResult{
		Trajectory:   run.traj,
		Trace:        tr.ExportChromeTrace(),
		Metrics:      tr.ExportMetricsCSV(),
		Decisions:    len(tr.Decisions()),
		DroppedSpans: tr.Dropped(),
	}
	// Written before validation, so a document that fails it is still on
	// disk to inspect.
	if err := writeIfNamed(tracePath, out.Trace); err != nil {
		return nil, err
	}
	if err := writeIfNamed(metricsPath, out.Metrics); err != nil {
		return nil, err
	}
	if err := obs.ValidateChromeTrace(out.Trace); err != nil {
		return nil, fmt.Errorf("harness: exported trace invalid: %w", err)
	}
	if err := obs.ValidateMetricsCSV(out.Metrics); err != nil {
		return nil, fmt.Errorf("harness: exported metrics invalid: %w", err)
	}
	return out, nil
}

// writeIfNamed writes data to path unless path is empty.
func writeIfNamed(path string, data []byte) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("harness: writing %s: %w", path, err)
	}
	return nil
}
