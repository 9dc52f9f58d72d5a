package harness

import (
	"errors"
	"fmt"
	"reflect"
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

// TestPoolExclusive: an Exclusive section runs with no other point in flight —
// the exclusion fig-executed's wall-clock runs depend on.
// Run under -race (make race) this also proves the token's handover is
// properly synchronized.
func TestPoolExclusive(t *testing.T) {
	p := NewPool(8)
	var running atomic.Int64
	var tokenViolations atomic.Int64
	const jobs = 32
	fns := make([]PointFn, jobs)
	for i := 0; i < jobs; i++ {
		fns[i] = func() error {
			if i%4 != 0 {
				running.Add(1)
				defer running.Add(-1)
				return nil
			}
			// A point waiting for the token is in flight but not running, so
			// an Exclusive point counts itself only once it holds the token.
			return p.Exclusive(func() error {
				running.Add(1)
				defer running.Add(-1)
				// Only this section's own increment may be visible: the token
				// drained every other running point, and a second section
				// holding the token at the same time would show as 2.
				if running.Load() != 1 {
					tokenViolations.Add(1)
				}
				return nil
			})
		}
	}
	if err := p.Run(fns); err != nil {
		t.Fatal(err)
	}
	if v := tokenViolations.Load(); v != 0 {
		t.Errorf("%d Exclusive sections overlapped another running point", v)
	}
}

// TestNestedExclusiveExcludesEveryPoint: an Exclusive section reached through an
// experiment's own pool, the way fig-executed times its executed cells under
// RunAllTimed, runs with no other experiment in flight. The sweep inside an
// experiment runs inline on the experiment's point and shares the registry's
// token; a fresh pool per sweep would exclude only its own points and let
// the other experiments run through the section.
func TestNestedExclusiveExcludesEveryPoint(t *testing.T) {
	var busy atomic.Int64 // experiments inside their work
	var inSection atomic.Bool
	var violations atomic.Int64
	const steps, step = 5, 5 * time.Millisecond
	timed := Experiment{ID: "timed", Run: func(s Scale) (*Table, error) {
		pool := s.pool()
		return nil, pool.Run([]PointFn{func() error {
			return pool.Exclusive(func() error {
				inSection.Store(true)
				defer inSection.Store(false)
				for range steps {
					if busy.Load() != 0 {
						violations.Add(1)
					}
					time.Sleep(step)
				}
				return nil
			})
		}})
	}}
	other := Experiment{ID: "other", Run: func(Scale) (*Table, error) {
		busy.Add(1)
		defer busy.Add(-1)
		for range steps {
			if inSection.Load() {
				violations.Add(1)
			}
			time.Sleep(step)
		}
		return nil, nil
	}}
	s := poolTestScale()
	s.Parallel = 4
	if _, err := runExperiments(s, []Experiment{other, timed, other, other, other, other}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("another experiment ran inside the nested Exclusive section %d times", v)
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
