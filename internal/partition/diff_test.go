package partition

import (
	"testing"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func TestPartitionForBoundaryValues(t *testing.T) {
	tp := &TablePlacement{
		Table:  "t",
		Bounds: []schema.Key{0, 100, 200},
		Cores:  []topology.CoreID{1, 2, 3},
	}
	cases := []struct {
		key  int64
		want int
	}{
		{0, 0},          // first bound
		{99, 0},         // just below an internal bound
		{100, 1},        // exactly an internal bound belongs to the right
		{200, 2},        // exactly the last bound
		{201, 2},        // beyond the last bound
		{1 << 60, 2},    // far beyond the key space
		{-1, 0},         // below the first bound clamps to the first partition
		{-(1 << 60), 0}, // arbitrarily negative keys clamp too
	}
	for _, c := range cases {
		if got := tp.PartitionFor(schema.KeyFromInt(c.key)); got != c.want {
			t.Errorf("PartitionFor(%d) = %d, want %d", c.key, got, c.want)
		}
		if got := tp.CoreFor(schema.KeyFromInt(c.key)); got != tp.Cores[c.want] {
			t.Errorf("CoreFor(%d) = %d, want %d", c.key, got, tp.Cores[c.want])
		}
	}

	single := &TablePlacement{Table: "s", Bounds: []schema.Key{0}, Cores: []topology.CoreID{7}}
	for _, key := range []int64{-5, 0, 1, 1 << 62} {
		if got := single.PartitionFor(schema.KeyFromInt(key)); got != 0 {
			t.Errorf("single-partition PartitionFor(%d) = %d, want 0", key, got)
		}
		if got := single.CoreFor(schema.KeyFromInt(key)); got != 7 {
			t.Errorf("single-partition CoreFor(%d) = %d, want 7", key, got)
		}
	}
}

func TestValidateAlive(t *testing.T) {
	top := smallTop()
	p := NaivePerCore(top, []TableSpec{{Name: "a", MaxKey: 1600}})
	if err := p.ValidateAlive(top); err != nil {
		t.Fatalf("placement on live topology rejected: %v", err)
	}
	if err := top.FailSocket(3); err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateAlive(top); err == nil {
		t.Error("placement using a failed socket's cores must be rejected")
	}
	bad := NewPlacement()
	bad.Tables["b"] = &TablePlacement{Table: "b", Bounds: []schema.Key{0}, Cores: []topology.CoreID{999}}
	if err := bad.ValidateAlive(top); err == nil {
		t.Error("placement using an unknown core must be rejected")
	}
}

// twoTablePlacement builds a two-table placement over the small topology.
func twoTablePlacement() *Placement {
	p := NewPlacement()
	p.Tables["a"] = &TablePlacement{Table: "a", Bounds: btree.UniformBounds(1000, 4), Cores: []topology.CoreID{0, 1, 2, 3}}
	p.Tables["b"] = &TablePlacement{Table: "b", Bounds: []schema.Key{0}, Cores: []topology.CoreID{4}}
	return p
}

func TestDiffClassifiesTables(t *testing.T) {
	cur := twoTablePlacement()

	// Identical placements: everything unchanged, diff empty.
	d := Diff(cur, cur.Clone())
	if !d.Empty() || d.UnchangedTables() != 2 || d.ChangedTables() != 0 || d.MovedPartitions() != 0 {
		t.Errorf("identical placements: %+v", d)
	}
	if cores := d.AffectedCores(); len(cores) != 0 {
		t.Errorf("identical placements affect cores %v", cores)
	}

	// Move one partition of a to another core: TableMoved, b unchanged.
	moved := cur.Clone()
	moved.Tables["a"].Cores[2] = 9
	d = Diff(cur, moved)
	if d.Tables["a"].Kind != TableMoved || len(d.Tables["a"].Moved) != 1 || d.Tables["a"].Moved[0] != 2 {
		t.Errorf("move diff: %+v", d.Tables["a"])
	}
	if d.Tables["b"].Kind != TableUnchanged {
		t.Errorf("table b should be unchanged, got %v", d.Tables["b"].Kind)
	}
	if d.Empty() || d.UnchangedTables() != 1 || d.MovedPartitions() != 1 {
		t.Errorf("move diff summary: unchanged=%d moved=%d", d.UnchangedTables(), d.MovedPartitions())
	}
	// Affected cores: the old owner (2) and the new owner (9).
	cores := d.AffectedCores()
	if len(cores) != 2 || cores[0] != 2 || cores[1] != 9 {
		t.Errorf("affected cores = %v, want [2 9]", cores)
	}

	// Change a's bounds: TableRebounded.
	rb := cur.Clone()
	rb.Tables["a"].Bounds = btree.UniformBounds(1000, 3)
	rb.Tables["a"].Cores = []topology.CoreID{0, 1, 2}
	d = Diff(cur, rb)
	if d.Tables["a"].Kind != TableRebounded {
		t.Errorf("rebound diff kind = %v", d.Tables["a"].Kind)
	}
	if d.ReboundTables() != 1 {
		t.Errorf("ReboundTables = %d", d.ReboundTables())
	}

	// A table absent from the current placement is a full build.
	grown := cur.Clone()
	grown.Tables["c"] = &TablePlacement{Table: "c", Bounds: []schema.Key{0, 10}, Cores: []topology.CoreID{5, 6}}
	d = Diff(cur, grown)
	if d.Tables["c"].Kind != TableRebounded || len(d.Tables["c"].Moved) != 2 {
		t.Errorf("new-table diff: %+v", d.Tables["c"])
	}
}

func TestDiffReboundedMatchesIdenticalRanges(t *testing.T) {
	// Splitting only the last partition keeps the first two (same bounds,
	// same upper bound, same core) out of the Moved list.
	cur := NewPlacement()
	cur.Tables["a"] = &TablePlacement{Table: "a", Bounds: []schema.Key{0, 100, 200}, Cores: []topology.CoreID{0, 1, 2}}
	want := NewPlacement()
	want.Tables["a"] = &TablePlacement{Table: "a", Bounds: []schema.Key{0, 100, 200, 300}, Cores: []topology.CoreID{0, 1, 2, 3}}
	d := Diff(cur, want)
	td := d.Tables["a"]
	if td.Kind != TableRebounded {
		t.Fatalf("kind = %v", td.Kind)
	}
	// Partitions 0 and 1 cover identical ranges on identical cores; 2 (its
	// upper bound shrank from open-ended to 300) and 3 (new) moved.
	if len(td.Moved) != 2 || td.Moved[0] != 2 || td.Moved[1] != 3 {
		t.Errorf("moved = %v, want [2 3]", td.Moved)
	}
}

// TestDiffAcrossIslandLevels diffs PerIsland placements of different
// granularities against each other — the cross-level diff an online
// island-level change applies. A level change on a machine where the two
// levels' islands coincide (one die per socket: die islands == socket
// islands) must diff as completely unchanged; a genuine merge rebounds the
// tables, and the runtime derived for the new placement validates against it.
func TestDiffAcrossIslandLevels(t *testing.T) {
	specs := []TableSpec{{Name: "t", MaxKey: 8000}}

	// One die per socket: die and socket islands are the same core sets.
	flat := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 4})
	dom := numa.NewDomain(flat)
	die := PerIsland(flat, topology.LevelDie, specs)
	sock := PerIsland(flat, topology.LevelSocket, specs)
	diff := Diff(die, sock)
	if !diff.Empty() {
		t.Fatalf("die and socket islands coincide on a flat machine; diff should be empty: %+v", diff.Tables["t"])
	}
	rt := NewRuntime(dom, die)
	rt2, _ := rt.ApplyDiff(sock, diff)
	if err := rt2.Validate(sock); err != nil {
		t.Fatalf("cross-level runtime invalid: %v", err)
	}

	// A genuine core->socket merge rebounds the table; the runtime still
	// validates.
	core := PerIsland(flat, topology.LevelCore, specs)
	diff2 := Diff(core, sock)
	td := diff2.Tables["t"]
	if td.Kind != TableRebounded {
		t.Fatalf("core->socket merge should rebound, got %v", td.Kind)
	}
	rtCore := NewRuntime(dom, core)
	rt3, _ := rtCore.ApplyDiff(sock, diff2)
	if err := rt3.Validate(sock); err != nil {
		t.Fatalf("merged runtime invalid: %v", err)
	}
	// Affected cores are the union of old and new owners — the cores that
	// pause; with 8 core-grained owners merging onto 2 socket homes that is
	// all 8, but never more than the owners involved.
	if got := len(diff2.AffectedCores()); got != 8 {
		t.Errorf("core->socket merge affects %d cores, want 8", got)
	}

	// After a socket failure the surviving socket island equals the machine
	// island: a socket->machine change on the degraded machine diffs
	// unchanged.
	failed := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 4})
	if err := failed.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	domF := numa.NewDomain(failed)
	sockF := PerIsland(failed, topology.LevelSocket, specs)
	machF := PerIsland(failed, topology.LevelMachine, specs)
	diffF := Diff(sockF, machF)
	if !diffF.Empty() {
		t.Fatalf("surviving socket island == machine island; diff should be empty: %+v", diffF.Tables["t"])
	}
	rtF := NewRuntime(domF, sockF)
	rtF2, _ := rtF.ApplyDiff(machF, diffF)
	if err := rtF2.Validate(machF); err != nil {
		t.Fatalf("post-failure cross-level runtime invalid: %v", err)
	}
}

func TestRuntimeValidateCatchesMismatches(t *testing.T) {
	top := smallTop()
	dom := numa.NewDomain(top)
	p := twoTablePlacement()
	rt := NewRuntime(dom, p)

	missing := p.Clone()
	missing.Tables["c"] = &TablePlacement{Table: "c", Bounds: []schema.Key{0}, Cores: []topology.CoreID{0}}
	if err := rt.Validate(missing); err == nil {
		t.Error("runtime missing a table must fail validation")
	}

	shrunk := p.Clone()
	shrunk.Tables["a"].Bounds = shrunk.Tables["a"].Bounds[:2]
	shrunk.Tables["a"].Cores = shrunk.Tables["a"].Cores[:2]
	if err := rt.Validate(shrunk); err == nil {
		t.Error("partition-count mismatch must fail validation")
	}

	// Re-homing a partition's owner without rebuilding its lock table is the
	// torn state Validate exists to catch: core 12 lives on another socket.
	rehomed := p.Clone()
	rehomed.Tables["a"].Cores[0] = 12
	if err := rt.Validate(rehomed); err == nil {
		t.Error("lock table homed on the wrong socket must fail validation")
	}
}
