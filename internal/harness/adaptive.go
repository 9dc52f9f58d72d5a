package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"atrapos/internal/core"
	"atrapos/internal/engine"
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

// timeCompression is the corresponding compression factor passed to the
// engine so repartitioning costs stay proportional to the compressed timeline.
const timeCompression = float64(time.Second) / float64(adaptiveWindow)

// paperSecond converts the paper's x-axis seconds to the compressed scale.
func paperSecond(s float64) vclock.Nanos { return vclock.Nanos(float64(adaptiveWindow) * s) }

// adaptiveInterval returns the monitoring-interval configuration with the
// paper's 1 s initial and 8 s maximum intervals mapped to the compressed scale.
func adaptiveInterval() core.IntervalConfig {
	return core.IntervalConfig{
		Initial:         paperSecond(1),
		Max:             paperSecond(8),
		StableThreshold: 0.10,
		History:         5,
	}
}

// runSeries executes one engine for the given virtual duration and returns
// its throughput series sampled at the compressed one-second window.
func runSeries(e *engine.Engine, s Scale, duration vclock.Nanos, events []engine.Event) ([]vclock.Sample, *engine.Result, error) {
	res, err := e.Run(engine.RunOptions{
		Duration:        duration,
		MaxTransactions: 40 * s.Transactions,
		Seed:            s.Seed,
		SampleWindow:    adaptiveWindow,
		Events:          events,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Series, res, nil
}

// staticAndAdaptive builds a static ATraPos engine (monitoring and adaptation
// disabled) and an adaptive one over the same workload and placement.
func staticAndAdaptive(wl *workload.Workload, top *topology.Topology) (*engine.Engine, *engine.Engine, error) {
	place := engine.DerivePlacement(wl, top, true)
	static, err := engine.New(engine.Config{Design: engine.ATraPos, Workload: wl, Topology: top, Placement: place})
	if err != nil {
		return nil, nil, err
	}
	adaptive, err := engine.New(engine.Config{
		Design:           engine.ATraPos,
		Workload:         wl,
		Topology:         top,
		Placement:        place,
		Adaptive:         true,
		AdaptiveInterval: adaptiveInterval(),
		TimeCompression:  timeCompression,
	})
	if err != nil {
		return nil, nil, err
	}
	return static, adaptive, nil
}

// Fig10 reproduces Figure 10: the TATP workload switches transaction class
// every 30 (compressed) seconds; the static system keeps its initial
// partitioning while ATraPos adapts.
func Fig10(s Scale) (*Table, error) {
	duration := paperSecond(90)
	mixAt, err := workload.Schedule([]workload.Phase{
		{Label: "UpdSubData", Duration: paperSecond(30), Mix: map[string]float64{workload.TATPUpdSubData: 1}},
		{Label: "GetNewDest", Duration: paperSecond(30), Mix: map[string]float64{workload.TATPGetNewDest: 1}},
		{Label: "TATP-Mix", Duration: paperSecond(30), Mix: workload.TATPStandardMix()},
	})
	if err != nil {
		return nil, err
	}
	wl, err := workload.TATP(workload.TATPOptions{Subscribers: s.Subscribers, MixAt: mixAt})
	if err != nil {
		return nil, err
	}
	wl.Name = "TATP-workload-change"
	return adaptiveComparison(s, "fig10", "Adapting to workload changes (throughput over time)", wl, duration, nil,
		"The workload switches every 30 time units: UpdSubData, then GetNewDest, then the TATP mix.")
}

// Fig11 reproduces Figure 11: GetSubData with uniform accesses until t=20,
// then 50% of the requests hit 20% of the data.
func Fig11(s Scale) (*Table, error) {
	duration := paperSecond(50)
	wl, err := workload.TATP(workload.TATPOptions{
		Subscribers: s.Subscribers,
		Mix:         map[string]float64{workload.TATPGetSubData: 1},
		Skew:        workload.Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: paperSecond(20)},
	})
	if err != nil {
		return nil, err
	}
	wl.Name = "TATP-sudden-skew"
	return adaptiveComparison(s, "fig11", "Adapting to sudden workload skew", wl, duration, nil,
		"At t=20 half of the requests start hitting 20% of the subscribers.")
}

// Fig12 reproduces Figure 12: one socket fails at t=20; the static system
// overloads the fallback socket while ATraPos repartitions over the
// remaining cores.
func Fig12(s Scale) (*Table, error) {
	duration := paperSecond(50)
	wl := workload.MustTATP(workload.TATPOptions{
		Subscribers: s.Subscribers,
		Mix:         map[string]float64{workload.TATPGetSubData: 1},
	})
	wl.Name = "TATP-socket-failure"
	failAt := paperSecond(20)
	failed := topology.SocketID(s.MaxSockets - 1)
	events := func() []engine.Event {
		return []engine.Event{{
			At: failAt,
			Do: func(e *engine.Engine) { _ = e.FailSocket(failed) },
		}}
	}
	top1 := s.Topology()
	top2 := s.Topology()
	place1 := engine.DerivePlacement(wl, top1, true)
	place2 := engine.DerivePlacement(wl, top2, true)
	static, err := engine.New(engine.Config{Design: engine.ATraPos, Workload: wl, Topology: top1, Placement: place1})
	if err != nil {
		return nil, err
	}
	adaptive, err := engine.New(engine.Config{
		Design:           engine.ATraPos,
		Workload:         wl,
		Topology:         top2,
		Placement:        place2,
		Adaptive:         true,
		AdaptiveInterval: adaptiveInterval(),
		TimeCompression:  timeCompression,
	})
	if err != nil {
		return nil, err
	}
	staticSeries, _, err := runSeries(static, s, duration, events())
	if err != nil {
		return nil, err
	}
	adaptiveSeries, adaptiveRes, err := runSeries(adaptive, s, duration, events())
	if err != nil {
		return nil, err
	}
	t := seriesTable("fig12", "Adapting to hardware failures (one socket fails at t=20)", adaptiveWindow,
		map[string][]vclock.Sample{"static": staticSeries, "atrapos": adaptiveSeries},
		[]string{fmt.Sprintf("ATraPos repartitioned %d time(s) after the failure.", adaptiveRes.Repartitions)})
	return t, nil
}

// Fig13 reproduces Figure 13: the workload alternates between GetNewDest
// (workload A) and the TATP mix (workload B); ATraPos keeps adapting and
// re-tunes its monitoring interval.
func Fig13(s Scale) (*Table, error) {
	duration := paperSecond(180)
	mixAt, err := workload.Schedule([]workload.Phase{
		{Label: "A", Duration: paperSecond(60), Mix: map[string]float64{workload.TATPGetNewDest: 1}},
		{Label: "B", Duration: paperSecond(30), Mix: workload.TATPStandardMix()},
		{Label: "A", Duration: paperSecond(30), Mix: map[string]float64{workload.TATPGetNewDest: 1}},
		{Label: "B", Duration: paperSecond(30), Mix: workload.TATPStandardMix()},
		{Label: "A", Duration: paperSecond(15), Mix: map[string]float64{workload.TATPGetNewDest: 1}},
		{Label: "B", Duration: paperSecond(15), Mix: workload.TATPStandardMix()},
	})
	if err != nil {
		return nil, err
	}
	wl, err := workload.TATP(workload.TATPOptions{Subscribers: s.Subscribers, MixAt: mixAt})
	if err != nil {
		return nil, err
	}
	wl.Name = "TATP-frequent-changes"
	return adaptiveComparison(s, "fig13", "Adapting to frequent workload changes", wl, duration, nil,
		"Workloads A (GetNewDest) and B (TATP mix) alternate with shrinking periods; ATraPos keeps re-adapting.")
}

func adaptiveComparison(s Scale, id, title string, wl *workload.Workload, duration vclock.Nanos, events []engine.Event, note string) (*Table, error) {
	top := s.Topology()
	static, adaptive, err := staticAndAdaptive(wl, top)
	if err != nil {
		return nil, err
	}
	staticSeries, _, err := runSeries(static, s, duration, events)
	if err != nil {
		return nil, err
	}
	adaptiveSeries, adaptiveRes, err := runSeries(adaptive, s, duration, events)
	if err != nil {
		return nil, err
	}
	notes := []string{note,
		fmt.Sprintf("ATraPos repartitioned %d time(s); total repartitioning time %.1f ms (virtual); adaptation cost share %.4f.",
			adaptiveRes.Repartitions, adaptiveRes.RepartitionTime.Seconds()*1e3, adaptiveRes.AdaptationCostShare)}
	if summary := diffSummary(adaptiveRes.RepartitionDiffs); summary != "" {
		notes = append(notes, "repartition diffs: "+summary)
	}
	return seriesTable(id, title, adaptiveWindow,
		map[string][]vclock.Sample{"static": staticSeries, "atrapos": adaptiveSeries}, notes), nil
}

// diffSummary renders the per-repartitioning diff sizes: how many tables
// changed vs. were left untouched, how many partitions migrated, and how
// many partition lock tables the incremental runtime build reused.
func diffSummary(diffs []engine.RepartitionDiff) string {
	if len(diffs) == 0 {
		return ""
	}
	parts := make([]string, len(diffs))
	for i, d := range diffs {
		parts[i] = fmt.Sprintf("[%d changed/%d unchanged tables, %d moved partitions, %d reused/%d rebuilt lock tables, %d cores paused]",
			d.ChangedTables, d.UnchangedTables, d.MovedPartitions, d.ReusedLockTables, d.RebuiltLockTables, d.AffectedCores)
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
	duration := paperSecond(60)
	wl, err := workload.TATPDriftingHotspot(s.Subscribers, paperSecond(10))
	if err != nil {
		return nil, err
	}
	return adaptiveComparison(s, "fig-drift", "Adapting to a continuously drifting hotspot", wl, duration, nil,
		"An 80%-hot window covering 10% of the subscribers shifts every 10 time units; only the Subscriber table carries load.")
}

// FigOscillate runs the skew-oscillation scenario: the access distribution
// flips between heavily skewed and uniform every 15 (compressed) seconds, so
// the ideal placement oscillates between two fixed points and the interval
// controller has to keep re-engaging without thrashing.
func FigOscillate(s Scale) (*Table, error) {
	duration := paperSecond(90)
	wl, err := workload.TATPSkewOscillation(s.Subscribers, paperSecond(15))
	if err != nil {
		return nil, err
	}
	return adaptiveComparison(s, "fig-oscillate", "Adapting to an oscillating access skew", wl, duration, nil,
		"The workload alternates every 15 time units between 60%-of-requests-to-20%-of-data skew and uniform access.")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// AblationTxnList compares the centralized active-transaction list (PLP)
// against the per-socket lists (HWAware) with everything else equal.
func AblationTxnList(s Scale) (*Table, error) {
	return ablationDesigns(s, "ablation-txnlist",
		"Centralized vs per-socket transaction list and state locks",
		map[string]engine.Config{
			"centralized state (PLP)":    {Design: engine.PLP},
			"per-socket state (HWAware)": {Design: engine.HWAware},
		})
}

// AblationStateLock isolates the shared state locks by comparing the
// centralized design with and without a multisocket machine.
func AblationStateLock(s Scale) (*Table, error) {
	wl := s.partitionableWorkload()
	t := &Table{
		ID:     "ablation-statelock",
		Title:  "Cost of centralized state as sockets grow (centralized design)",
		Header: []string{"sockets", "throughput", "useful fraction"},
	}
	for _, n := range s.socketSweep() {
		e, err := engine.New(engine.Config{Design: engine.Centralized, Workload: wl, Topology: s.topologyWith(n)})
		if err != nil {
			return nil, err
		}
		res, err := e.Run(s.runOptions())
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtTPS(res.ThroughputTPS), fmt.Sprintf("%.2f", res.UsefulFraction))
	}
	return t, nil
}

// AblationPlacement compares the hardware-oblivious and hardware-aware
// placements of the same workload-aware partitioning (the Figure 6 step from
// "Workload-aware" to "ATraPos").
func AblationPlacement(s Scale) (*Table, error) {
	wl := workload.TwoTableSimple(s.MicroRows)
	top := s.Topology()
	t := &Table{
		ID:     "ablation-placement",
		Title:  "Placement step (Algorithm 2) on vs off",
		Header: []string{"placement", "throughput"},
	}
	for _, hw := range []bool{false, true} {
		e, err := engine.New(engine.Config{
			Design:    engine.ATraPos,
			Workload:  wl,
			Topology:  top,
			Placement: engine.DerivePlacement(wl, top, hw),
		})
		if err != nil {
			return nil, err
		}
		tps, _, err := runThroughput(e, s.runOptions())
		if err != nil {
			return nil, err
		}
		label := "hardware-oblivious"
		if hw {
			label = "hardware-aware"
		}
		t.AddRow(label, fmtTPS(tps))
	}
	return t, nil
}

// AblationSubPartitions sweeps the number of sub-partitions the monitor
// tracks per partition and reports how many partitions the planner proposes
// and how balanced the proposal is relative to the starting placement, under
// a synthetic skewed trace.
func AblationSubPartitions(s Scale) (*Table, error) {
	top := s.Topology()
	domain := numa.MustNewDomain(top, numa.DefaultCostModel())
	model := core.CostModel{Domain: domain}
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers})
	place := engine.DerivePlacement(wl, top, true)
	maxKeys := maxKeysOf(wl)
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
		stats := monitor.Aggregate()
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

// maxKeysOf maps every table of a workload to its maximum key.
func maxKeysOf(wl *workload.Workload) map[string]schema.Key {
	out := make(map[string]schema.Key, len(wl.Tables))
	for _, spec := range wl.TableSpecs() {
		out[spec.Name] = schema.KeyFromInt(spec.MaxKey)
	}
	return out
}

// AblationSLI compares the centralized design with and without speculative
// lock inheritance.
func AblationSLI(s Scale) (*Table, error) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers})
	t := &Table{
		ID:     "ablation-sli",
		Title:  "Speculative lock inheritance in the centralized design",
		Header: []string{"SLI", "throughput"},
	}
	for _, disable := range []bool{false, true} {
		e, err := engine.New(engine.Config{Design: engine.Centralized, Workload: wl, Topology: s.Topology(), DisableSLI: disable})
		if err != nil {
			return nil, err
		}
		tps, _, err := runThroughput(e, s.runOptions())
		if err != nil {
			return nil, err
		}
		label := "enabled"
		if disable {
			label = "disabled"
		}
		t.AddRow(label, fmtTPS(tps))
	}
	return t, nil
}

func ablationDesigns(s Scale, id, title string, cfgs map[string]engine.Config) (*Table, error) {
	wl := s.partitionableWorkload()
	t := &Table{ID: id, Title: title, Header: []string{"configuration", "throughput"}}
	labels := make([]string, 0, len(cfgs))
	for l := range cfgs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, label := range labels {
		cfg := cfgs[label]
		cfg.Workload = wl
		cfg.Topology = s.Topology()
		e, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		tps, _, err := runThroughput(e, s.runOptions())
		if err != nil {
			return nil, err
		}
		t.AddRow(label, fmtTPS(tps))
	}
	return t, nil
}
