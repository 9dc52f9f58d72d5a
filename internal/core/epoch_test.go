package core

import (
	"testing"

	"atrapos/internal/btree"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// TestMonitorSealSteadyStateAllocs pins Seal's steady-state allocation
// behavior: once the reusable aggregate is warmed up (sealed once), a
// record-and-seal cycle must not allocate. Runs with many planner
// intervals — single slow device, high virtual time per txn — seal often
// enough that a per-seal allocation shows up in the fuzzer's whole-run
// allocs-per-txn budget.
func TestMonitorSealSteadyStateAllocs(t *testing.T) {
	m := NewMonitor(4)
	m.Register("a", btree.UniformBounds(1000, 8), schema.KeyFromInt(1000))
	refs := []PartitionRef{{Table: "a", Partition: 0}, {Table: "a", Partition: 5}}
	cycle := func() {
		for i := 0; i < 32; i++ {
			m.RecordAction("a", schema.KeyFromInt(int64(i*31%1000)), 10)
		}
		m.RecordSync(refs, 64)
		m.RecordTxn(4, 2, 1, true, 64)
		m.RecordWriteKey(uint64(12345))
		m.AdvanceWindow(vclock.Nanos(1000))
		m.Seal()
	}
	cycle() // warm the scratch aggregate and the sync pool
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("steady-state record+seal cycle allocates %.1f objects", avg)
	}
}

// TestChoosePartitioningPreservesIdleTables checks that tables with no load
// in the monitoring window keep their current placement verbatim, so the
// plan diff reports them unchanged and repartitioning skips them.
func TestChoosePartitioningPreservesIdleTables(t *testing.T) {
	d := testDomain()
	planner := NewPlanner(CostModel{Domain: d}, 10)
	planner.PreserveIdle = true

	current := partition.NewPlacement()
	current.Tables["hot"] = &partition.TablePlacement{
		Table:  "hot",
		Bounds: btree.UniformBounds(1000, 4),
		Cores:  []topology.CoreID{0, 1, 2, 3},
	}
	current.Tables["idle"] = &partition.TablePlacement{
		Table:  "idle",
		Bounds: btree.UniformBounds(1000, 3),
		Cores:  []topology.CoreID{5, 6, 7},
	}
	maxKeys := map[string]schema.Key{"hot": schema.KeyFromInt(1000), "idle": schema.KeyFromInt(1000)}

	stats := &Stats{
		Sub:     map[string][][]SubLoad{"hot": make([][]SubLoad, 4), "idle": make([][]SubLoad, 3)},
		Bounds:  map[string][]schema.Key{"hot": btree.UniformBounds(1000, 4), "idle": btree.UniformBounds(1000, 3)},
		MaxKeys: maxKeys,
	}
	for p := 0; p < 4; p++ {
		stats.Sub["hot"][p] = make([]SubLoad, 10)
		stats.Sub["hot"][p][0] = SubLoad{Cost: 1000, Actions: 10}
	}
	for p := 0; p < 3; p++ {
		stats.Sub["idle"][p] = make([]SubLoad, 10)
	}

	proposed := planner.ChoosePartitioning(current, stats, maxKeys)
	if err := proposed.Validate(); err != nil {
		t.Fatalf("proposed placement invalid: %v", err)
	}
	diff := partition.Diff(current, proposed)
	td := diff.Tables["idle"]
	if td == nil || td.Kind != partition.TableUnchanged {
		t.Errorf("idle table should be unchanged in the diff, got %+v", td)
	}

	// After a socket failure the idle table's placement must be re-derived.
	if err := d.Top.FailSocket(1); err != nil { // cores 4..7 die on the 4x4 box
		t.Fatal(err)
	}
	proposed = planner.ChoosePartitioning(current, stats, maxKeys)
	if err := proposed.Validate(); err != nil {
		t.Fatalf("post-failure placement invalid: %v", err)
	}
	for i, c := range proposed.Tables["idle"].Cores {
		if !d.Top.Alive(d.Top.SocketOf(c)) {
			t.Errorf("idle table partition %d still on dead core %d", i, c)
		}
	}
}
