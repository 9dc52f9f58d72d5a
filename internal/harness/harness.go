// Package harness drives the experiments of the paper's evaluation section:
// one driver per table and figure, each producing the same rows or series the
// paper reports. The drivers are used by the root package's RunExperiment
// and RunAllExperimentsTimed and by the atrapos-bench command.
package harness

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"atrapos/internal/engine"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// Scale controls how large the experiments run. The paper's hardware is an
// 8-socket, 80-core machine with multi-gigabyte datasets; the quick scale
// keeps every experiment to a few seconds so the full suite can run in CI.
type Scale struct {
	// CoresPerSocket and MaxSockets describe the largest machine simulated.
	CoresPerSocket int
	MaxSockets     int
	// MicroRows is the dataset size of the microbenchmarks.
	MicroRows int
	// Subscribers is the TATP population.
	Subscribers int
	// Warehouses and CustomersPerDistrict / Items scale TPC-C.
	Warehouses           int
	CustomersPerDistrict int
	Items                int
	// Transactions is the number of transactions per measured point.
	Transactions int
	// Parallel is how many independent figure points / experiments the harness
	// pool runs concurrently: 0 or 1 runs them one at a time in order, N > 1
	// fans them out across N goroutines. A point is one single-goroutine
	// engine run, so the value changes wall time only, never a result.
	Parallel int
	// Seed makes runs repeatable.
	Seed int64
	// Profile optionally names a machine profile (topology.Profiles) to run
	// the experiments on instead of the scale's own MaxSockets x
	// CoresPerSocket machine. Experiments that sweep the socket count keep
	// their sweep; everything that uses the scale's largest machine uses the
	// profile's shape.
	Profile string
}

// QuickScale returns a scale suitable for tests and benchmarks: a 4-socket,
// 16-core Island machine and datasets in the thousands of rows.
func QuickScale() Scale {
	return Scale{
		CoresPerSocket:       4,
		MaxSockets:           4,
		MicroRows:            8000,
		Subscribers:          8000,
		Warehouses:           2,
		CustomersPerDistrict: 60,
		Items:                2000,
		Transactions:         2500,
		Seed:                 42,
	}
}

// PaperScale returns the paper's setup: 8 sockets of 10 cores, 800 K
// subscribers, and larger per-point transaction counts. Running every
// experiment at this scale takes minutes rather than seconds.
func PaperScale() Scale {
	return Scale{
		CoresPerSocket:       10,
		MaxSockets:           8,
		MicroRows:            800_000,
		Subscribers:          800_000,
		Warehouses:           80,
		CustomersPerDistrict: 3000,
		Items:                100_000,
		Transactions:         40_000,
		Seed:                 42,
	}
}

// topologyWith returns an Island machine with the given number of sockets.
func (s Scale) topologyWith(sockets int) *topology.Topology {
	return topology.MustNew(topology.Config{
		Name:           fmt.Sprintf("%d-socket x %d-core", sockets, s.CoresPerSocket),
		Sockets:        sockets,
		CoresPerSocket: s.CoresPerSocket,
	})
}

// Validate reports whether the scale is usable; today that means the pinned
// machine profile, if any, names a known profile. RunExperiment and RunAllTimed
// check it up front so a typo surfaces as an error instead of a panic deep
// inside an experiment.
func (s Scale) Validate() error {
	if s.Profile != "" {
		if _, err := topology.BuildProfile(s.Profile); err != nil {
			return err
		}
	}
	return nil
}

// Topology returns the machine the experiments run on: the named profile's
// machine when Scale.Profile is set (panicking on an unknown name — callers
// reach this only through entry points that ran Validate first), otherwise
// the largest machine of the scale.
func (s Scale) Topology() *topology.Topology {
	if s.Profile != "" {
		top, err := topology.BuildProfile(s.Profile)
		if err != nil {
			panic(err)
		}
		return top
	}
	return s.topologyWith(s.MaxSockets)
}

// socketSweep returns the socket counts used by the scaling figures
// (1, 2, 4, ... up to MaxSockets), mirroring the paper's x-axis.
func (s Scale) socketSweep() []int {
	var out []int
	for n := 1; n <= s.MaxSockets; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != s.MaxSockets {
		out = append(out, s.MaxSockets)
	}
	return out
}

// Table is a rendered experiment result: a title, a header and rows of cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries commentary printed under the table (e.g. how a metric
	// maps onto the paper's).
	Notes []string
	// clocks is, per series label of a static-vs-adaptive figure, the spread
	// of that run's core clocks at its end. It is not printed.
	clocks map[string]vclock.Spread
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widthAt(widths, i, len(c)), c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func widthAt(widths []int, i, fallback int) int {
	if i < len(widths) {
		return widths[i]
	}
	return fallback
}

// Experiment is a named driver that reproduces one table or figure.
type Experiment struct {
	ID          string
	Description string
	Run         func(Scale) (*Table, error)
}

// Registry returns every experiment in presentation order: the priced
// experiments, then the measured ones.
func Registry() []Experiment {
	return slices.Concat(pricedExperiments, measuredExperiments)
}

// pricedExperiments are the experiments whose every number is virtual time:
// a pure function of (seed, config), whatever else runs on the host.
var pricedExperiments = []Experiment{
	{"fig1", "Instructions retired per cycle (useful-work fraction proxy) on a perfectly partitionable workload", Fig1},
	{"fig2", "Throughput of shared-nothing, centralized and PLP as sockets grow", Fig2},
	{"fig3", "Throughput as the percentage of multi-site transactions grows", Fig3},
	{"fig4", "Per-transaction time breakdown for coarse shared-nothing", Fig4},
	{"table1", "Throughput per socket under local/central/remote memory allocation", Table1},
	{"fig5", "Throughput of a perfectly partitionable workload including ATraPos", Fig5},
	{"fig6", "Simple two-table transaction under different partitioning/placement strategies", Fig6},
	{"fig7", "TPC-C NewOrder transaction flow graph", Fig7},
	{"fig8", "TATP and TPC-C throughput of ATraPos normalized over PLP", Fig8},
	{"table2", "Monitoring overhead on TATP", Table2},
	{"fig9", "Repartitioning cost as the number of actions grows", Fig9},
	{"fig10", "Adapting to workload changes (static vs ATraPos)", Fig10},
	{"fig11", "Adapting to sudden workload skew", Fig11},
	{"fig12", "Adapting to a processor failure", Fig12},
	{"fig13", "Adapting to frequent workload changes", Fig13},
	{"fig-drift", "Adapting to a continuously drifting hotspot (new scenario)", FigDrift},
	{"fig-oscillate", "Adapting to an oscillating access skew (new scenario)", FigOscillate},
	{"fig-islands", "Island-size sweep: shared-nothing granularity per machine profile and multisite probability", FigIslands},
	{"fig-log-devices", "Log-device sweep: island granularity under progressively scarcer log devices", FigLogDevices},
	{"fig-group-commit", "Coalescing group commit: write-combining WAL accumulator on/off across device layouts", FigGroupCommit},
	{"fig-adaptive-granularity", "Adaptive island granularity: the planner re-wires the machine as the multisite share drifts", FigAdaptiveGranularity},
	{"ablation-subparts", "Ablation: sub-partition granularity of the monitor", AblationSubPartitions},
	{"ablation-sli", "Ablation: speculative lock inheritance in the centralized design", AblationSLI},
	{"fig-faults", "Fault injection: fail→degrade→restore schedule with device re-homing and elastic recovery", FigFaults},
}

// measuredExperiments are the experiments that time cells in wall time; each
// runs alone under RunAllTimed.
var measuredExperiments = []Experiment{
	{"fig-executed", "Executed storage: real sharded hash backend vs priced model, crossover direction and level-ranking correlation", FigExecuted},
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registered experiment ids.
func IDs() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.ID
	}
	return out
}

// ExperimentResult is one experiment's outcome under RunAllTimed: the
// rendered table (nil if the experiment failed before rendering one), the
// experiment's own wall time, and its error if it failed.
type ExperimentResult struct {
	ID    string
	Table *Table
	Wall  time.Duration
	Err   error
}

// RunAllTimed executes every experiment at the given scale and returns the
// results in registry order, no matter the completion order; a failing
// experiment reports its error in its slot (and in the joined return error)
// without aborting the others. The priced experiments are the points of one
// pool, each running its own grid serially on its point. Then each measured
// experiment runs alone, at the scale's own concurrency, so no other
// experiment shares the host with its timed cells.
func RunAllTimed(s Scale) ([]ExperimentResult, error) {
	return runExperiments(s, pricedExperiments, measuredExperiments)
}

// runExperiments is RunAllTimed over the experiments priced, then measured.
func runExperiments(s Scale, priced, measured []Experiment) ([]ExperimentResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	results := make([]ExperimentResult, len(priced)+len(measured))
	run := func(i int, e Experiment, s Scale) error {
		start := time.Now()
		t, err := e.Run(s)
		results[i] = ExperimentResult{ID: e.ID, Table: t, Wall: time.Since(start)}
		if err != nil {
			results[i].Err = fmt.Errorf("%s: %w", e.ID, err)
		}
		return results[i].Err
	}
	// No nested fan-out: C experiments x C grid points would oversubscribe
	// quadratically, and the registry alone has enough.
	inner := s
	inner.Parallel = 1
	jobs := make([]PointFn, len(priced))
	for i, e := range priced {
		jobs[i] = func() error { return run(i, e, inner) }
	}
	errs := []error{NewPool(s.parallel()).Run(jobs)}
	for i, e := range measured {
		errs = append(errs, run(len(priced)+i, e, s))
	}
	return results, errors.Join(errs...)
}

// --- shared helpers ---

// parallel is the effective pool concurrency of the scale.
func (s Scale) parallel() int {
	if s.Parallel < 1 {
		return 1
	}
	return s.Parallel
}

func (s Scale) runOptions() engine.RunOptions {
	return engine.RunOptions{Transactions: s.Transactions, Seed: s.Seed}
}

// seriesOptions are the options of a duration-driven run: the virtual
// duration and throughput samples at the compressed one-second window. They
// set no transaction count, so only the engine's own bound can stop the run
// short of its duration, which runSeries reports.
func (s Scale) seriesOptions(duration vclock.Nanos) engine.RunOptions {
	return engine.RunOptions{
		Duration:     duration,
		Seed:         s.Seed,
		SampleWindow: adaptiveWindow,
	}
}

// runSeries runs e and, for a duration-driven series, fails when the run
// stopped before its duration: a run cut off by its transaction count
// under-counts windows long before its end, so its series is not a
// measurement. A fixed-count run (no Duration) passes the check trivially.
func runSeries(e *engine.Engine, opts engine.RunOptions) (*engine.Result, error) {
	res, err := e.Run(opts)
	if err != nil {
		return nil, err
	}
	if res.VirtualTime < opts.Duration {
		return nil, fmt.Errorf("harness: run stopped at %v of its %v after %d transactions",
			res.VirtualTime.Duration(), opts.Duration.Duration(), res.Committed+res.Aborted)
	}
	return res, nil
}

func fmtTPS(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f MTPS", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f KTPS", v/1e3)
	default:
		return fmt.Sprintf("%.0f TPS", v)
	}
}

func fmtFactor(v float64) string { return fmt.Sprintf("%.2fx", v) }

func fmtMicros(ns float64) string { return fmt.Sprintf("%.1f", ns/1e3) }

func fmtPercent(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// seriesTable renders one or more labelled throughput series, bucketed on a
// common virtual-time axis.
func seriesTable(id, title string, window vclock.Nanos, series map[string][]vclock.Sample, notes []string) *Table {
	labels := make([]string, 0, len(series))
	for l := range series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	t := &Table{ID: id, Title: title, Header: append([]string{"t (s)"}, labels...), Notes: notes}
	// Index samples by window.
	byWindow := make(map[string]map[int64]float64)
	var maxWin int64
	for l, ss := range series {
		byWindow[l] = make(map[int64]float64, len(ss))
		for _, s := range ss {
			w := int64(s.At) / int64(window)
			byWindow[l][w] = s.Throughput
			if w > maxWin {
				maxWin = w
			}
		}
	}
	for w := int64(1); w <= maxWin; w++ {
		row := []string{fmt.Sprintf("%.3f", float64(w)*window.Seconds())}
		for _, l := range labels {
			row = append(row, fmt.Sprintf("%.0f", byWindow[l][w]))
		}
		t.AddRow(row...)
	}
	return t
}

// micro is the builder of a microbenchmark at the scale's row count.
func (s Scale) micro(build func(rows int) *workload.Workload) func() *workload.Workload {
	return func() *workload.Workload { return build(s.MicroRows) }
}

// tatp is the builder of TATP at the scale's population under mix (nil is the
// standard mix).
func (s Scale) tatp(mix map[string]float64) func() *workload.Workload {
	return func() *workload.Workload {
		return workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers, Mix: mix})
	}
}
