package harness

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// poolTestScale is a reduced quick scale: sweep points stay real simulations
// but small enough that the bit-identity tests (which run every sweep twice)
// and the race-detector pass stay fast.
func poolTestScale() Scale {
	s := QuickScale()
	s.Transactions = 600
	s.MicroRows = 3000
	return s
}

// TestParallelSweepBitIdentical is the pool's determinism guarantee: tables
// rendered at -parallel 1 and -parallel 8 are equal byte for byte — the level
// sweeps (fig-islands, fig-log-devices, fig-group-commit), the design grids
// (fig3, fig8), a list table (table1) and a static-vs-adaptive series with a
// socket failure (fig12). A point is one single-goroutine engine run on a
// machine and workload of its own, so fanning points out can change only
// wall time, never a cell.
func TestParallelSweepBitIdentical(t *testing.T) {
	serial := poolTestScale()
	serial.Parallel = 1
	parallel := poolTestScale()
	parallel.Parallel = 8
	for _, exp := range []struct {
		name string
		run  func(Scale) (*Table, error)
	}{
		{"fig-islands", FigIslands},
		{"fig-log-devices", FigLogDevices},
		{"fig-group-commit", FigGroupCommit},
		{"fig3", Fig3},
		{"fig8", Fig8},
		{"table1", Table1},
		{"fig12", Fig12},
	} {
		a, err := exp.run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", exp.name, err)
		}
		b, err := exp.run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", exp.name, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				exp.name, a, b)
		}
	}
}

// TestPoolErrorAggregation: a failing point aborts nothing — every job runs,
// results land in submission-order slots, and the joined error carries every
// failure.
func TestPoolErrorAggregation(t *testing.T) {
	const jobs = 16
	ran := make([]bool, jobs)
	fns := make([]PointFn, jobs)
	for i := 0; i < jobs; i++ {
		fns[i] = func() error {
			ran[i] = true
			if i%5 == 0 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		}
	}
	err := NewPool(4).Run(fns)
	if err == nil {
		t.Fatal("expected a joined error")
	}
	for i, r := range ran {
		if !r {
			t.Errorf("point %d never ran", i)
		}
	}
	for i := 0; i < jobs; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("point %d failed", i)) {
			t.Errorf("joined error is missing point %d: %v", i, err)
		}
	}
	if strings.Contains(err.Error(), "point 1 failed") {
		t.Errorf("joined error blames a point that succeeded: %v", err)
	}
}

// TestMeasuredExperimentsRunAlone: under runExperiments no priced experiment
// is in flight while a measured one runs, the way fig-executed's timed cells
// must have the harness to themselves. The priced experiments fan out across
// the pool, each with its grid serial (Parallel 1); each measured experiment
// runs after them, alone, at the scale's own concurrency. Results come back
// in registry order, priced then measured.
func TestMeasuredExperimentsRunAlone(t *testing.T) {
	var priced, measured atomic.Int64 // experiments inside their work
	var violations atomic.Int64
	const steps, step = 5, 5 * time.Millisecond
	exp := func(id string, mine, other *atomic.Int64, parallel int) Experiment {
		return Experiment{ID: id, Run: func(s Scale) (*Table, error) {
			if s.Parallel != parallel {
				return nil, fmt.Errorf("%s ran at Parallel %d, want %d", id, s.Parallel, parallel)
			}
			mine.Add(1)
			defer mine.Add(-1)
			for range steps {
				if other.Load() != 0 || measured.Load() > 1 {
					violations.Add(1)
				}
				time.Sleep(step)
			}
			return &Table{ID: id}, nil
		}}
	}
	var p, m []Experiment
	for i := range 6 {
		p = append(p, exp(fmt.Sprintf("priced-%d", i), &priced, &measured, 1))
	}
	for i := range 2 {
		m = append(m, exp(fmt.Sprintf("measured-%d", i), &measured, &priced, 4))
	}
	s := poolTestScale()
	s.Parallel = 4
	results, err := runExperiments(s, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("a measured experiment shared the harness with another experiment %d times", v)
	}
	for i, e := range slices.Concat(p, m) {
		if results[i].ID != e.ID || results[i].Table == nil || results[i].Table.ID != e.ID {
			t.Errorf("slot %d holds %s, want %s (registry order lost)", i, results[i].ID, e.ID)
		}
	}
}

// TestPoolRunEmptyAndSerial: degenerate shapes keep working.
func TestPoolRunEmptyAndSerial(t *testing.T) {
	if err := NewPool(4).Run(nil); err != nil {
		t.Errorf("empty job list: %v", err)
	}
	order := []int{}
	var fns []PointFn
	for i := 0; i < 5; i++ {
		fns = append(fns, func() error {
			order = append(order, i)
			return nil
		})
	}
	if err := NewPool(1).Run(fns); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial pool ran out of order: %v", order)
	}
	if NewPool(0).Concurrency() != 1 || NewPool(-3).Concurrency() != 1 {
		t.Error("concurrency below 1 should clamp to 1")
	}
}

// TestRunAllTimedOrdering: RunAllTimed returns one result per registry entry,
// in registry order, each with its table, on a tiny healthy scale. The one
// failure it tolerates is fig-executed's crossover disagreement: that verdict
// is measured in wall time, and the other packages' tests may share the host
// (TestFigExecutedCrossover asserts it on a quiet host).
func TestRunAllTimedOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	s := poolTestScale()
	s.Parallel = 4
	results, _ := RunAllTimed(s) // the joined error repeats the per-slot ones
	reg := Registry()
	if len(results) != len(reg) {
		t.Fatalf("%d results for %d experiments", len(results), len(reg))
	}
	for i, r := range results {
		if r.ID != reg[i].ID {
			t.Errorf("slot %d holds %s, want %s (submission order lost)", i, r.ID, reg[i].ID)
		}
		if r.Err != nil && !(r.ID == "fig-executed" && errors.Is(r.Err, errCrossoverDisagrees)) {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
		if r.Table == nil {
			t.Errorf("%s produced no table", r.ID)
		}
		if r.Wall <= 0 {
			t.Errorf("%s has no wall time", r.ID)
		}
	}
}
