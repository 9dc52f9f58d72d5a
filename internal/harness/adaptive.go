package harness

import (
	"fmt"
	"strings"
	"time"

	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/fault"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// adaptiveWindow is the virtual-time scale of the adaptivity experiments.
// The paper runs them for 50-180 wall-clock seconds; the reproduction
// compresses every "paper second" into one virtual millisecond so the whole
// time series completes in a few real seconds while preserving its shape.
const adaptiveWindow = vclock.Nanos(time.Millisecond)

// paperSecond converts the paper's x-axis seconds to the compressed scale.
func paperSecond(s float64) vclock.Nanos { return vclock.Nanos(float64(adaptiveWindow) * s) }

// adaptive returns cfg with the planner enabled on the compressed timeline:
// the paper's 1 s initial and 8 s maximum monitoring intervals mapped to the
// compressed scale, and the compression factor passed to the engine so
// repartitioning costs stay proportional to the compressed timeline.
func adaptive(cfg engine.Config) engine.Config {
	cfg.Adaptive = true
	cfg.AdaptiveInterval = core.IntervalConfig{
		Initial: paperSecond(1),
		Max:     paperSecond(8),
	}
	cfg.TimeCompression = float64(time.Second) / float64(adaptiveWindow)
	return cfg
}

// staticVsAdaptive runs the workload build makes for the given virtual
// duration on a static ATraPos engine (monitoring and adaptation disabled)
// and on an adaptive one with the same initial placement, two points each on
// a machine and workload of its own. It returns the table of the two
// throughput series, which also keeps each run's clock spread, and the
// adaptive run's result.
func staticVsAdaptive(s Scale, id, title string, build func() (*workload.Workload, error), duration vclock.Nanos, faults *fault.Schedule) (*Table, *engine.Result, error) {
	if _, err := build(); err != nil {
		return nil, nil, err
	}
	// build is deterministic: having succeeded once, it succeeds for every point.
	wl := func() *workload.Workload { w, _ := build(); return w }
	opts := s.seriesOptions(duration)
	opts.Faults = faults
	static := engine.Config{Design: engine.ATraPos}
	cols := []column{{label: "static", cfg: static, place: true}, {label: "atrapos", cfg: adaptive(static), place: true}}
	grid, err := runGrid(s, id, gridPoints([]row{{wl: wl, top: s.Topology}}, cols, opts))
	if err != nil {
		return nil, nil, err
	}
	series := make(map[string][]vclock.Sample, len(cols))
	clocks := make(map[string]vclock.Spread, len(cols))
	for c, col := range cols {
		series[col.label], clocks[col.label] = grid[0][c].res.Series, grid[0][c].res.Clocks
	}
	tbl := seriesTable(id, title, adaptiveWindow, series, nil)
	tbl.clocks = clocks
	return tbl, grid[0][1].res, nil
}

// Fig10 reproduces Figure 10: the TATP workload switches transaction class
// every 30 (compressed) seconds; the static system keeps its initial
// partitioning while ATraPos adapts.
func Fig10(s Scale) (*Table, error) {
	return adaptiveComparison(s, "fig10", "Adapting to workload changes (throughput over time)", s.fig10Workload, paperSecond(90),
		"The workload switches every 30 time units: UpdSubData, then GetNewDest, then the TATP mix.")
}

// fig10Workload is Figure 10's TATP workload: UpdSubData, GetNewDest, then
// the standard mix, 30 time units each.
func (s Scale) fig10Workload() (*workload.Workload, error) {
	return workload.TATP(workload.TATPOptions{Subscribers: s.Subscribers, Phases: []workload.Phase{
		{Duration: paperSecond(30), Mix: map[string]float64{workload.TATPUpdSubData: 1}},
		{Duration: paperSecond(30), Mix: map[string]float64{workload.TATPGetNewDest: 1}},
		{Duration: paperSecond(30), Mix: workload.TATPStandardMix()},
	}})
}

// Fig11 reproduces Figure 11: GetSubData with uniform accesses until t=20,
// then 50% of the requests hit 20% of the data.
func Fig11(s Scale) (*Table, error) {
	wl := func() (*workload.Workload, error) {
		return workload.TATP(workload.TATPOptions{
			Subscribers: s.Subscribers,
			Mix:         map[string]float64{workload.TATPGetSubData: 1},
			Skew:        workload.Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: paperSecond(20)},
		})
	}
	return adaptiveComparison(s, "fig11", "Adapting to sudden workload skew", wl, paperSecond(50),
		"At t=20 half of the requests start hitting 20% of the subscribers.")
}

// Fig12 reproduces Figure 12: the machine's last socket fails at t=20; the
// static system overloads the fallback socket while ATraPos repartitions over
// the remaining cores. A one-socket machine has no socket to lose, which the
// schedule reports as an error.
func Fig12(s Scale) (*Table, error) {
	wl := func() (*workload.Workload, error) {
		return workload.TATP(workload.TATPOptions{Subscribers: s.Subscribers, Mix: map[string]float64{workload.TATPGetSubData: 1}})
	}
	sockets := s.Topology().Sockets()
	faults, err := fault.NewSchedule(fault.Machine{Sockets: sockets},
		fault.FailSocket(paperSecond(20), topology.SocketID(sockets-1)))
	if err != nil {
		return nil, err
	}
	tbl, res, err := staticVsAdaptive(s, "fig12", "Adapting to hardware failures (one socket fails at t=20)", wl, paperSecond(50), faults)
	if err != nil {
		return nil, err
	}
	tbl.Notes = []string{fmt.Sprintf("ATraPos repartitioned %d time(s) after the failure.", res.Repartitions)}
	return tbl, nil
}

// Fig13 reproduces Figure 13: the workload alternates between GetNewDest
// (workload A) and the TATP mix (workload B); ATraPos keeps adapting and
// re-tunes its monitoring interval.
func Fig13(s Scale) (*Table, error) {
	a := map[string]float64{workload.TATPGetNewDest: 1}
	b := workload.TATPStandardMix()
	wl := func() (*workload.Workload, error) {
		return workload.TATP(workload.TATPOptions{Subscribers: s.Subscribers, Phases: []workload.Phase{
			{Duration: paperSecond(60), Mix: a},
			{Duration: paperSecond(30), Mix: b},
			{Duration: paperSecond(30), Mix: a},
			{Duration: paperSecond(30), Mix: b},
			{Duration: paperSecond(15), Mix: a},
			{Duration: paperSecond(15), Mix: b},
		}})
	}
	return adaptiveComparison(s, "fig13", "Adapting to frequent workload changes", wl, paperSecond(180),
		"Workloads A (GetNewDest) and B (TATP mix) alternate with shrinking periods; ATraPos keeps re-adapting.")
}

func adaptiveComparison(s Scale, id, title string, wl func() (*workload.Workload, error), duration vclock.Nanos, note string) (*Table, error) {
	tbl, res, err := staticVsAdaptive(s, id, title, wl, duration, nil)
	if err != nil {
		return nil, err
	}
	notes := []string{note,
		fmt.Sprintf("ATraPos repartitioned %d time(s); total repartitioning time %.1f ms (virtual); adaptation cost share %.4f.",
			res.Repartitions, res.RepartitionTime.Seconds()*1e3, res.AdaptationCostShare)}
	if summary := diffSummary(res.RepartitionDiffs); summary != "" {
		notes = append(notes, "repartition diffs: "+summary)
	}
	tbl.Notes = notes
	return tbl, nil
}

// diffSummary renders the per-repartitioning diff sizes: how many tables
// changed vs. were left untouched, how many partitions migrated and how many
// cores paused for it.
func diffSummary(diffs []engine.RepartitionDiff) string {
	if len(diffs) == 0 {
		return ""
	}
	parts := make([]string, len(diffs))
	for i, d := range diffs {
		parts[i] = fmt.Sprintf("[%d changed/%d unchanged tables, %d moved partitions, %d cores paused]",
			d.ChangedTables, d.UnchangedTables, d.MovedPartitions, d.AffectedCores)
	}
	return strings.Join(parts, " ")
}

// FigDrift runs the continuous-drift scenario this PR's incremental
// repartitioning unlocks: an 80%-hot window over 10% of the subscribers that
// slides to the next window every 10 (compressed) seconds. The static
// placement is tuned for one window position and decays as the hotspot
// leaves it; ATraPos chases the window with small diffs that leave the three
// unloaded TATP tables untouched.
func FigDrift(s Scale) (*Table, error) {
	wl := func() (*workload.Workload, error) {
		return workload.TATPDriftingHotspot(s.Subscribers, paperSecond(10))
	}
	return adaptiveComparison(s, "fig-drift", "Adapting to a continuously drifting hotspot", wl, paperSecond(60),
		"An 80%-hot window covering 10% of the subscribers shifts every 10 time units; only the Subscriber table carries load.")
}

// FigOscillate runs the skew-oscillation scenario: the access distribution
// flips between heavily skewed and uniform every 15 (compressed) seconds, so
// the ideal placement oscillates between two fixed points and the interval
// controller has to keep re-engaging without thrashing.
func FigOscillate(s Scale) (*Table, error) {
	wl := func() (*workload.Workload, error) {
		return workload.TATPSkewOscillation(s.Subscribers, paperSecond(15))
	}
	return adaptiveComparison(s, "fig-oscillate", "Adapting to an oscillating access skew", wl, paperSecond(90),
		"The workload alternates every 15 time units between 60%-of-requests-to-20%-of-data skew and uniform access.")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// AblationSubPartitions sweeps the number of sub-partitions the monitor
// tracks per partition and reports how many partitions the planner proposes
// and how balanced the proposal is relative to the starting placement, under
// a synthetic skewed trace.
func AblationSubPartitions(s Scale) (*Table, error) {
	top := s.Topology()
	domain := numa.NewDomain(top)
	model := core.CostModel{Domain: domain}
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers})
	place := engine.DerivePlacement(wl, top, true)
	maxKeys := wl.MaxKeys()
	t := &Table{
		ID:     "ablation-subparts",
		Title:  "Sub-partition granularity of the monitoring arrays",
		Header: []string{"sub-partitions", "proposed partitions", "relative imbalance"},
	}
	for _, subs := range []int{2, 5, 10, 20} {
		monitor := core.NewMonitor(subs)
		monitor.RegisterPlacement(place, maxKeys)
		// Synthesize a skewed trace: 50% of the accesses on 20% of the keys.
		maxKey := wl.Tables[0].MaxKey
		for i := 0; i < 4000; i++ {
			key := int64(i) % maxKey
			if i%2 == 0 {
				key = key % (maxKey / 5)
			}
			monitor.RecordAction("Subscriber", schema.KeyFromInt(key), 1000)
		}
		stats := monitor.Seal()
		planner := core.NewPlanner(model, subs)
		proposed := planner.ChoosePartitioning(place, stats, maxKeys)
		ru := model.ResourceUtilization(proposed, stats)
		base := model.ResourceUtilization(place, stats)
		rel := 1.0
		if base > 0 {
			rel = ru / base
		}
		t.AddRow(fmt.Sprintf("%d", subs), fmt.Sprintf("%d", proposed.TotalPartitions()), fmt.Sprintf("%.2f", rel))
	}
	t.Notes = append(t.Notes, "Finer sub-partitioning lets Algorithm 1 isolate hot ranges; the paper uses 10 as the space/precision trade-off.")
	return t, nil
}

// AblationSLI compares the centralized design with and without speculative
// lock inheritance.
func AblationSLI(s Scale) (*Table, error) {
	return s.listTable(&Table{
		ID:     "ablation-sli",
		Title:  "Speculative lock inheritance in the centralized design",
		Header: []string{"SLI", "throughput"},
	}, s.tatp(nil), s.Topology, []column{
		{label: "enabled", cfg: engine.Config{Design: engine.Centralized}},
		{label: "disabled", cfg: engine.Config{Design: engine.Centralized, DisableSLI: true}},
	}, tpsOnly)
}
