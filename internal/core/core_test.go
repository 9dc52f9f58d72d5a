package core

import (
	"testing"
	"time"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

func testDomain() *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
	return numa.NewDomain(top)
}

func twoTablePlacement(top *topology.Topology) *partition.Placement {
	return partition.NaivePerCore(top, []partition.TableSpec{
		{Name: "A", MaxKey: 1600},
		{Name: "B", MaxKey: 1600},
	})
}

func TestMonitorRecordAndAggregate(t *testing.T) {
	m := NewMonitor(0)
	if m.SubPartitions() != DefaultSubPartitions {
		t.Fatalf("SubPartitions = %d", m.SubPartitions())
	}
	bounds := btree.UniformBounds(1000, 4)
	m.Register("A", bounds, schema.KeyFromInt(1000))

	// Keys 0..249 are partition 0; record a hot sub-partition.
	for i := 0; i < 100; i++ {
		m.RecordAction("A", schema.KeyFromInt(int64(i%25)), 10) // sub-partition 0 of partition 0
	}
	m.RecordAction("A", schema.KeyFromInt(999), 50) // last partition, last sub-partition
	m.RecordAction("Unknown", schema.KeyFromInt(1), 99)
	m.RecordSync([]PartitionRef{{Table: "A", Partition: 0}, {Table: "A", Partition: 3}}, 64)
	m.RecordSync([]PartitionRef{{Table: "A", Partition: 0}, {Table: "A", Partition: 3}}, 32)
	m.RecordSync(nil, 10)
	m.AdvanceWindow(vclock.Nanos(time.Second))
	m.AdvanceWindow(-5)

	stats := m.Seal()
	if stats.Window != vclock.Nanos(time.Second) {
		t.Errorf("window = %d", stats.Window)
	}
	if len(stats.Sub["A"]) != 4 {
		t.Fatalf("partitions in stats = %d", len(stats.Sub["A"]))
	}
	if stats.Sub["A"][0][0].Cost != 1000 || stats.Sub["A"][0][0].Actions != 100 {
		t.Errorf("hot sub-partition load = %+v", stats.Sub["A"][0][0])
	}
	if stats.Sub["A"][3][9].Cost != 50 {
		t.Errorf("cold partition load = %+v", stats.Sub["A"][3][9])
	}
	if stats.TotalCost() != 1050 {
		t.Errorf("TotalCost = %d", stats.TotalCost())
	}
	if stats.TableCost("A") != 1050 || stats.TableCost("B") != 0 {
		t.Errorf("TableCost mismatch")
	}
	if len(stats.Syncs) != 1 || stats.Syncs[0].Count != 2 || stats.Syncs[0].Bytes != 48 {
		t.Errorf("sync stats = %+v", stats.Syncs)
	}
	// Aggregation clears the arrays.
	stats2 := m.Seal()
	if stats2.TotalCost() != 0 || len(stats2.Syncs) != 0 || stats2.Window != 0 {
		t.Error("aggregate did not reset the monitor")
	}
}

func TestMonitorRegisterPlacement(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 2})
	p := twoTablePlacement(top)
	m := NewMonitor(5)
	m.RegisterPlacement(p, map[string]schema.Key{"A": schema.KeyFromInt(1600), "B": schema.KeyFromInt(1600)})
	m.RecordAction("B", schema.KeyFromInt(1599), 7)
	stats := m.Seal()
	if len(stats.Sub["B"]) != p.Tables["B"].NumPartitions() {
		t.Errorf("B partitions = %d", len(stats.Sub["B"]))
	}
	if stats.TableCost("B") != 7 {
		t.Errorf("B cost = %d", stats.TableCost("B"))
	}
	// Degenerate partition spans (hi <= lo) do not panic.
	m2 := NewMonitor(3)
	m2.Register("tiny", []schema.Key{0, 1}, 1)
	m2.RecordAction("tiny", 0, 5)
	m2.RecordAction("tiny", 1, 5)
	if m2.Seal().TableCost("tiny") != 10 {
		t.Error("tiny table cost mismatch")
	}
}

func TestCostModelResourceUtilization(t *testing.T) {
	// A 1-socket, 2-core machine so the imbalance metric is easy to reason about.
	top := topology.MustNew(topology.Config{Sockets: 1, CoresPerSocket: 2})
	d := numa.NewDomain(top)
	model := CostModel{Domain: d}
	p := partition.NewPlacement()
	p.Tables["A"] = &partition.TablePlacement{
		Table:  "A",
		Bounds: btree.UniformBounds(1000, 2),
		Cores:  []topology.CoreID{0, 1},
	}
	// Balanced load on the two partitions.
	balanced := &Stats{Sub: map[string][][]SubLoad{
		"A": {{{Cost: 500}}, {{Cost: 500}}},
	}}
	// Skewed load.
	skewed := &Stats{Sub: map[string][][]SubLoad{
		"A": {{{Cost: 900}}, {{Cost: 100}}},
	}}
	ruBalanced := model.ResourceUtilization(p, balanced)
	ruSkewed := model.ResourceUtilization(p, skewed)
	if ruSkewed <= ruBalanced {
		t.Errorf("skewed RU %f should exceed balanced RU %f", ruSkewed, ruBalanced)
	}
	loads := model.coreLoads(p, skewed)
	if loads[0] != 900 || loads[1] != 100 {
		t.Errorf("core loads = %v", loads)
	}
	// Idle cores are part of the balance computation.
	if len(loads) != d.Top.NumCores() {
		t.Errorf("loads cover %d cores, want %d", len(loads), d.Top.NumCores())
	}
	if model.ResourceUtilization(partition.NewPlacement(), balanced) < 0 {
		t.Error("RU of empty placement should be non-negative")
	}
}

func TestCostModelSyncCost(t *testing.T) {
	d := testDomain()
	model := CostModel{Domain: d}
	p := partition.NewPlacement()
	p.Tables["A"] = &partition.TablePlacement{
		Table: "A", Bounds: btree.UniformBounds(100, 2),
		Cores: []topology.CoreID{0, 1}, // both on socket 0
	}
	p.Tables["B"] = &partition.TablePlacement{
		Table: "B", Bounds: btree.UniformBounds(100, 2),
		Cores: []topology.CoreID{12, 13}, // both on socket 3
	}
	sameSocket := SyncStat{Participants: []PartitionRef{{Table: "A", Partition: 0}, {Table: "A", Partition: 1}}, Bytes: 64}
	crossSocket := SyncStat{Participants: []PartitionRef{{Table: "A", Partition: 0}, {Table: "B", Partition: 0}}, Bytes: 64}
	if c := model.SyncCost(p, sameSocket); c != 0 {
		t.Errorf("same-socket sync cost = %f, want 0", c)
	}
	if c := model.SyncCost(p, crossSocket); c <= 0 {
		t.Errorf("cross-socket sync cost = %f, want > 0", c)
	}
	// Out-of-range partition indices are clamped, unknown tables skipped.
	weird := SyncStat{Participants: []PartitionRef{{Table: "A", Partition: 99}, {Table: "Z", Partition: 0}, {Table: "B", Partition: -1}}, Bytes: 64}
	if c := model.SyncCost(p, weird); c < 0 {
		t.Error("clamped sync cost should be non-negative")
	}
	stats := &Stats{Syncs: []SyncStat{{Participants: crossSocket.Participants, Bytes: 64, Count: 10}}}
	if ts := model.TransactionSync(p, stats); ts <= 0 {
		t.Error("TransactionSync should be positive for cross-socket signatures")
	}
}

func TestPlannerBalancesSkewedLoad(t *testing.T) {
	d := testDomain()
	model := CostModel{Domain: d}
	planner := NewPlanner(model, 10)
	if NewPlanner(model, 0).SubPartitions != DefaultSubPartitions {
		t.Error("planner should default the sub-partition count")
	}

	// One table, currently 4 uniform partitions on 4 cores, but all of the
	// load hits the first 20% of the key space.
	current := partition.NewPlacement()
	current.Tables["A"] = &partition.TablePlacement{
		Table:  "A",
		Bounds: btree.UniformBounds(1000, 4),
		Cores:  []topology.CoreID{0, 1, 2, 3},
	}
	maxKeys := map[string]schema.Key{"A": schema.KeyFromInt(1000)}

	stats := &Stats{
		Sub:     map[string][][]SubLoad{"A": make([][]SubLoad, 4)},
		Bounds:  map[string][]schema.Key{"A": btree.UniformBounds(1000, 4)},
		MaxKeys: maxKeys,
	}
	for p := 0; p < 4; p++ {
		stats.Sub["A"][p] = make([]SubLoad, 10)
	}
	// Partition 0 sub-partitions 0..7 are hot (keys 0..200).
	for sp := 0; sp < 8; sp++ {
		stats.Sub["A"][0][sp] = SubLoad{Cost: 1000, Actions: 100}
	}

	proposed := planner.ChoosePartitioning(current, stats, maxKeys)
	if err := proposed.Validate(); err != nil {
		t.Fatalf("proposed placement invalid: %v", err)
	}
	ruBefore := model.ResourceUtilization(current, stats)
	ruAfter := model.ResourceUtilization(proposed, stats)
	if ruAfter >= ruBefore {
		t.Errorf("Algorithm 1 did not improve balance: before %f, after %f", ruBefore, ruAfter)
	}
	// The hot key range should now be covered by more than one partition.
	tp := proposed.Tables["A"]
	hotParts := map[int]bool{}
	for k := int64(0); k < 200; k += 10 {
		hotParts[tp.PartitionFor(schema.KeyFromInt(k))] = true
	}
	if len(hotParts) < 2 {
		t.Errorf("hot range still owned by %d partition(s)", len(hotParts))
	}
}

func TestPlannerPlacementReducesSyncCost(t *testing.T) {
	d := testDomain()
	model := CostModel{Domain: d}
	planner := NewPlanner(model, 10)

	// Two tables, one partition each, placed on different sockets, with a
	// frequent synchronization point between them.
	p := partition.NewPlacement()
	p.Tables["A"] = &partition.TablePlacement{Table: "A", Bounds: []schema.Key{0}, Cores: []topology.CoreID{0}}
	p.Tables["B"] = &partition.TablePlacement{Table: "B", Bounds: []schema.Key{0}, Cores: []topology.CoreID{15}}
	stats := &Stats{
		Sub: map[string][][]SubLoad{
			"A": {{{Cost: 100}}},
			"B": {{{Cost: 100}}},
		},
		Syncs: []SyncStat{{
			Participants: []PartitionRef{{Table: "A", Partition: 0}, {Table: "B", Partition: 0}},
			Count:        1000,
			Bytes:        64,
		}},
	}
	before := model.TransactionSync(p, stats)
	placed := planner.ChoosePlacement(p, stats)
	after := model.TransactionSync(placed, stats)
	if after >= before {
		t.Errorf("Algorithm 2 did not reduce sync cost: before %f, after %f", before, after)
	}
	// With no sync stats the placement is returned unchanged.
	same := planner.ChoosePlacement(p, &Stats{})
	if same.Tables["B"].Cores[0] != 15 {
		t.Error("placement changed with no sync information")
	}
	// Full two-step plan stays valid.
	full := planner.Plan(p, stats, map[string]schema.Key{"A": 100, "B": 100})
	if err := full.Validate(); err != nil {
		t.Fatalf("full plan invalid: %v", err)
	}
}

func TestIntervalController(t *testing.T) {
	// The zero config is the paper's controller: 1 s initial, 8 s maximum.
	c := NewIntervalController(IntervalConfig{})
	if c.Interval() != vclock.Nanos(time.Second) {
		t.Fatalf("initial interval = %v", c.Interval())
	}
	// First observation has no history: keep monitoring.
	if d := c.Observe(1000); d != KeepMonitoring {
		t.Errorf("first observation decision = %v", d)
	}
	// Stable throughput doubles the interval up to the maximum (8s).
	for i := 0; i < 6; i++ {
		if d := c.Observe(1000); d != KeepMonitoring {
			t.Fatalf("stable observation %d decision = %v", i, d)
		}
	}
	if c.Interval() != vclock.Nanos(8*time.Second) {
		t.Errorf("interval after stability = %v, want 8s", c.Interval().Duration())
	}
	if len(c.History()) != historyLen {
		t.Errorf("history length = %d", len(c.History()))
	}
	// A big drop triggers evaluation.
	if d := c.Observe(200); d != Evaluate {
		t.Errorf("throughput drop decision = %v, want Evaluate", d)
	}
	// After repartitioning the interval resets to 1s.
	c.Repartitioned()
	if c.Interval() != vclock.Nanos(time.Second) || len(c.History()) != 0 {
		t.Error("Repartitioned did not reset the controller")
	}
	// A maximum below the initial interval pins the interval.
	pinned := NewIntervalController(IntervalConfig{Initial: vclock.Nanos(2 * time.Second), Max: vclock.Nanos(time.Second)})
	for i := 0; i < 3; i++ {
		pinned.Observe(1000)
	}
	if pinned.Interval() != vclock.Nanos(2*time.Second) {
		t.Errorf("pinned interval = %v, want 2s", pinned.Interval().Duration())
	}
	// Zero-throughput history followed by work triggers evaluation.
	c2 := NewIntervalController(IntervalConfig{})
	c2.Observe(0)
	if d := c2.Observe(0); d != KeepMonitoring {
		t.Errorf("all-zero throughput decision = %v", d)
	}
	if d := c2.Observe(500); d != Evaluate {
		t.Errorf("work after idle decision = %v, want Evaluate", d)
	}
}

func TestBuildPlanAndExecute(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 2})
	d := numa.NewDomain(top)
	store := storage.NewManager(d)
	def := &schema.Table{
		Name:       "A",
		Columns:    []schema.Column{{Name: "id", Type: schema.Int64}, {Name: "v", Type: schema.Int64}},
		PrimaryKey: "id",
	}
	tbl, err := store.CreateTable(def, btree.UniformBounds(1000, 2), []topology.SocketID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl.LoadFunc(1000, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i)) })

	current := partition.NewPlacement()
	current.Tables["A"] = &partition.TablePlacement{
		Table: "A", Bounds: btree.UniformBounds(1000, 2), Cores: []topology.CoreID{0, 2},
	}
	desired := partition.NewPlacement()
	desired.Tables["A"] = &partition.TablePlacement{
		Table: "A", Bounds: btree.UniformBounds(1000, 4), Cores: []topology.CoreID{0, 2, 1, 3},
	}

	plan := BuildPlan(current, desired, top)
	if plan.Empty() {
		t.Fatal("plan should not be empty")
	}
	if plan.Splits() != 2 {
		t.Errorf("Splits = %d, want 2 (two new boundaries)", plan.Splits())
	}
	if plan.Merges() != 0 {
		t.Errorf("Merges = %d, want 0", plan.Merges())
	}
	if plan.Moves() == 0 {
		t.Error("expected at least one move (partition 1 changes socket)")
	}

	exec := NewExecutor(DefaultExecutorConfig(), d, store)
	out, err := exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Actions == 0 || out.Cost <= 0 {
		t.Errorf("outcome = %+v", out)
	}
	if tbl.NumPartitions() != 4 {
		t.Errorf("table has %d partitions after repartitioning, want 4", tbl.NumPartitions())
	}
	if tbl.Len() != 1000 {
		t.Errorf("rows lost: %d", tbl.Len())
	}
	// Homes follow the owning cores' sockets.
	if tbl.Home(3) != top.SocketOf(3) {
		t.Errorf("partition 3 homed on %d", tbl.Home(3))
	}

	// Reverse plan: merges back to 2 partitions.
	back := BuildPlan(desired, current, top)
	if back.Merges() != 2 {
		t.Errorf("reverse plan merges = %d, want 2", back.Merges())
	}
	if _, err := exec.Execute(back); err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 2 || tbl.Len() != 1000 {
		t.Errorf("after reverse: %d partitions, %d rows", tbl.NumPartitions(), tbl.Len())
	}

	// Executing an empty or nil plan is free.
	if out, err := exec.Execute(nil); err != nil || out.Actions != 0 {
		t.Error("nil plan should be a no-op")
	}
	if out, err := exec.Execute(&Plan{New: current.Clone()}); err != nil || out.Cost != 0 {
		t.Errorf("empty plan should be free, got %+v err %v", out, err)
	}
	// A plan referencing an unknown table errors.
	badPlan := &Plan{
		Actions: []RepartitionAction{{Kind: SplitAction, Table: "nope", Key: 5}},
		New:     current.Clone(),
	}
	if _, err := exec.Execute(badPlan); err == nil {
		t.Error("unknown table should error")
	}
}

func TestActionKindString(t *testing.T) {
	for _, k := range []ActionKind{SplitAction, MergeAction, MoveAction, ActionKind(9)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestRepartitionCostScalesWithActions(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
	d := numa.NewDomain(top)

	costOfSplit := func(nSplits int) vclock.Nanos {
		store := storage.NewManager(d)
		def := &schema.Table{
			Name:       "A",
			Columns:    []schema.Column{{Name: "id", Type: schema.Int64}},
			PrimaryKey: "id",
		}
		tbl, _ := store.CreateTable(def, []schema.Key{0}, nil)
		tbl.LoadFunc(8000, func(i int, w *schema.RowWriter) { w.Int(int64(i)) })
		current := partition.NewPlacement()
		current.Tables["A"] = &partition.TablePlacement{Table: "A", Bounds: []schema.Key{0}, Cores: []topology.CoreID{0}}
		desired := partition.NewPlacement()
		desired.Tables["A"] = &partition.TablePlacement{
			Table:  "A",
			Bounds: btree.UniformBounds(8000, nSplits+1),
			Cores:  make([]topology.CoreID, nSplits+1),
		}
		plan := BuildPlan(current, desired, top)
		exec := NewExecutor(DefaultExecutorConfig(), d, store)
		out, err := exec.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		return out.Cost
	}
	if costOfSplit(16) <= costOfSplit(4) {
		t.Error("more repartitioning actions should cost more")
	}
}
