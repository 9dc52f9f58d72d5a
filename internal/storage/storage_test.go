package storage

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func testManager(t *testing.T) *Manager {
	t.Helper()
	top := topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 2})
	return NewManager(numa.NewDomain(top))
}

func accountsDef() *schema.Table {
	return &schema.Table{
		Name: "accounts",
		Columns: []schema.Column{
			{Name: "id", Type: schema.Int64},
			{Name: "balance", Type: schema.Int64},
		},
		PrimaryKey: "id",
	}
}

func TestCreateTable(t *testing.T) {
	m := testManager(t)
	tbl, err := m.CreateTable(accountsDef(), btree.UniformBounds(1000, 4), []topology.SocketID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "accounts" || tbl.NumPartitions() != 4 {
		t.Errorf("table %s has %d partitions", tbl.Name(), tbl.NumPartitions())
	}
	if _, err := m.CreateTable(accountsDef(), nil, nil); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := m.CreateTable(&schema.Table{Name: "bad"}, nil, nil); err == nil {
		t.Error("invalid definition should fail")
	}
	if _, err := m.CreateTable(&schema.Table{
		Name:       "badbounds",
		Columns:    []schema.Column{{Name: "id", Type: schema.Int64}},
		PrimaryKey: "id",
	}, []schema.Key{5}, nil); err == nil {
		t.Error("invalid bounds should fail")
	}
	if _, err := m.Table("accounts"); err != nil {
		t.Error(err)
	}
	if _, err := m.Table("nope"); err == nil {
		t.Error("unknown table should fail")
	}
	if len(m.Tables()) != 1 {
		t.Errorf("Tables() returned %d", len(m.Tables()))
	}
	if m.Domain() == nil {
		t.Error("nil accessors")
	}
	// Default bounds and homes.
	def2 := accountsDef()
	def2.Name = "accounts2"
	tbl2, err := m.CreateTable(def2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumPartitions() != 1 || tbl2.Home(0) != 0 {
		t.Errorf("default table has %d partitions homed on %d", tbl2.NumPartitions(), tbl2.Home(0))
	}
}

func TestRowOperations(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), btree.UniformBounds(100, 4), []topology.SocketID{0, 1, 2, 3})

	key := schema.KeyFromInt(10)
	row := schema.Row{int64(10), int64(500)}

	cost, err := tbl.Insert(0, key, row)
	if err != nil || cost <= 0 {
		t.Fatalf("Insert cost %d err %v", cost, err)
	}
	// A duplicate pays the probe without the local write and keeps the row.
	dupCost, err := tbl.Insert(0, key, schema.Row{int64(10), int64(7)})
	if !errors.Is(err, ErrDuplicate) || dupCost != cost-numa.LocalAccess {
		t.Errorf("duplicate insert: cost %d err %v, want %d and ErrDuplicate", dupCost, err, cost-numa.LocalAccess)
	}
	got, cost, err := tbl.Read(0, key)
	if err != nil || cost <= 0 {
		t.Fatalf("Read cost %d err %v", cost, err)
	}
	if got[1].(int64) != 500 {
		t.Errorf("Read returned %v", got)
	}
	if _, _, err := tbl.Read(0, schema.KeyFromInt(55)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing read err = %v", err)
	}
	if _, err := tbl.Update(0, key, func(r schema.Row) schema.Row {
		return schema.Row{r[0], r[1].(int64) + 1}
	}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = tbl.Read(0, key)
	if got[1].(int64) != 501 {
		t.Errorf("update not applied: %v", got)
	}
	if _, err := tbl.Update(0, schema.KeyFromInt(55), func(r schema.Row) schema.Row { return r }); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing update err = %v", err)
	}
	if _, err := tbl.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(0, key); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after deleting the only row", tbl.Len())
	}
}

// TestFlatRowOperations: the engine's positional operations on flat rows. An
// increment adds to the last column in place without wrapping, and leaves a
// short row (one column, or none) as it is; a replace stores the new row; a
// boxed row that does not fit the layout is refused before anything changes.
func TestFlatRowOperations(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), btree.UniformBounds(100, 4), []topology.SocketID{0, 1, 2, 3})
	if err := tbl.LoadFunc(100, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i*2)) }); err != nil {
		t.Fatal(err)
	}
	l := tbl.Layout()
	k := schema.KeyFromInt
	p := tbl.PartitionFor(k(5))
	for range 1000 {
		if _, err := tbl.IncrementIn(p, 0, k(5)); err != nil {
			t.Fatal(err)
		}
	}
	if row, _, _ := tbl.ReadIn(p, 0, k(5)); !reflect.DeepEqual(l.Decode(row), schema.Row{int64(5), int64(1010)}) {
		t.Errorf("after 1000 increments row 5 is %v, want [5 1010]", l.Decode(row))
	}
	if _, err := tbl.IncrementIn(tbl.PartitionFor(k(500)), 0, k(500)); !errors.Is(err, ErrNotFound) {
		t.Errorf("increment of a missing key: err = %v", err)
	}
	short := map[schema.Key]schema.Row{k(200): {int64(200)}, k(201): nil}
	for key, r := range short {
		if _, err := tbl.Insert(0, key, r); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.IncrementIn(tbl.PartitionFor(key), 0, key); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := tbl.Read(0, key); !reflect.DeepEqual(got, r) {
			t.Errorf("short row %v became %v after an increment", r, got)
		}
	}
	flat, err := l.Encode(schema.Row{int64(7), int64(-3)})
	if err != nil {
		t.Fatal(err)
	}
	replaceCost, err := tbl.ReplaceIn(tbl.PartitionFor(k(7)), 0, k(7), flat)
	if err != nil {
		t.Fatal(err)
	}
	updateCost, _ := tbl.Update(0, k(8), func(r schema.Row) schema.Row { return r })
	if got, _, _ := tbl.Read(0, k(7)); !reflect.DeepEqual(got, schema.Row{int64(7), int64(-3)}) || replaceCost != updateCost {
		t.Errorf("replaced row %v at cost %d, want [7 -3] at an update's cost %d", got, replaceCost, updateCost)
	}
	if _, err := tbl.Update(0, k(9), func(schema.Row) schema.Row { return schema.Row{int64(9), "x"} }); err == nil {
		t.Error("an update to a row that does not fit the layout should fail")
	}
	if _, err := tbl.Insert(0, k(300), schema.Row{int64(300), 1.5}); err == nil || tbl.Len() != 102 {
		t.Errorf("insert of a row that does not fit: err = %v, %d rows", err, tbl.Len())
	}
	if got, _, _ := tbl.Read(0, k(9)); !reflect.DeepEqual(got, schema.Row{int64(9), int64(18)}) {
		t.Errorf("a refused update changed row 9 to %v", got)
	}
}

// TestIncrementChangesWidth: an increment that carries a mid-leaf row's last
// column across a varint width (63→64, 8191→8192 widen it, -65→-64
// narrows it) stores the new row length and leaves every other row of the
// leaf as it was, and one that keeps the width allocates nothing.
func TestIncrementChangesWidth(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), []schema.Key{0}, nil)
	want := make([]int64, 60)
	for i := range want {
		want[i] = int64(i) * 100
	}
	want[30], want[31], want[32] = 62, 8190, -65
	if err := tbl.LoadFunc(len(want), func(i int, w *schema.RowWriter) { w.Ints(int64(i), want[i]) }); err != nil {
		t.Fatal(err)
	}
	l := tbl.Layout()
	check := func(after string) {
		t.Helper()
		for i, v := range want {
			row, _, err := tbl.ReadIn(0, 0, schema.KeyFromInt(int64(i)))
			if got := l.Decode(row); err != nil || !reflect.DeepEqual(got, schema.Row{int64(i), v}) {
				t.Fatalf("after %s row %d is %v, %v; want [%d %d]", after, i, got, err, i, v)
			}
		}
	}
	for _, i := range []int{30, 30, 31, 31, 32} {
		if _, err := tbl.IncrementIn(0, 0, schema.KeyFromInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		want[i]++
		check(fmt.Sprintf("incrementing row %d to %d", i, want[i]))
	}
	allocs := testing.AllocsPerRun(100, func() { tbl.IncrementIn(0, 0, schema.KeyFromInt(10)) })
	if allocs != 0 {
		t.Errorf("an increment that keeps its width costs %.1f allocs", allocs)
	}
}

func TestRemoteAccessCostsMore(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), btree.UniformBounds(100, 4), []topology.SocketID{0, 1, 2, 3})
	key := schema.KeyFromInt(90) // partition 3, homed on socket 3
	local := topology.CoreID(6)  // a core on socket 3 (2 cores per socket)
	tbl.Insert(local, key, schema.Row{int64(90), int64(1)})

	_, localCost, err := tbl.Read(local, key)
	if err != nil {
		t.Fatal(err)
	}
	_, remoteCost, err := tbl.Read(0, key)
	if err != nil {
		t.Fatal(err)
	}
	if remoteCost <= localCost {
		t.Errorf("remote read cost %d should exceed local %d", remoteCost, localCost)
	}
	// Traffic counters observed the accesses.
	if m.Domain().Top.Traffic().InterconnectBytes == 0 {
		t.Error("remote read should have recorded interconnect traffic")
	}
}

func TestLoadAndScan(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), btree.UniformBounds(1000, 4), nil)
	if err := tbl.LoadFunc(1000, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i*2)) }); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1000 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var visited int
	cost := tbl.Scan(0, schema.KeyFromInt(100), schema.KeyFromInt(200), func(k schema.Key, r schema.Row) bool {
		visited++
		return true
	})
	if visited != 100 || cost <= 0 {
		t.Errorf("scan visited %d rows at cost %d", visited, cost)
	}
	// A loaded table takes run-time inserts.
	if _, err := tbl.Insert(0, schema.KeyFromInt(2000), schema.Row{int64(2000), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(0, schema.KeyFromInt(999), schema.Row{int64(999), int64(1)}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("insert over a loaded key: err = %v", err)
	}
	if r, _, err := tbl.Read(0, schema.KeyFromInt(2000)); err != nil || r[1].(int64) != 1 || tbl.Len() != 1001 {
		t.Errorf("inserted row = %v, %v; %d rows", r, err, tbl.Len())
	}
	def := accountsDef()
	def.Name = "fresh"
	fresh, _ := m.CreateTable(def, nil, nil)
	if err := fresh.LoadFunc(1, func(_ int, w *schema.RowWriter) { w.Str("x"); w.Int(1) }); err == nil {
		t.Error("bad generated key should fail")
	}
}

// TestLoadFuncRejects: the bulk load takes strictly ascending keys into an
// empty table, and says which table and which row broke that.
func TestLoadFuncRejects(t *testing.T) {
	cases := []struct {
		name string
		keys []int64
		want string
	}{
		{"descending key", []int64{0, 1, 2, 7, 5, 9}, "row 4"},
		{"duplicate key", []int64{0, 1, 2, 2, 3}, "row 3"},
	}
	for _, tc := range cases {
		tbl, _ := testManager(t).CreateTable(accountsDef(), btree.UniformBounds(10, 2), nil)
		err := tbl.LoadFunc(len(tc.keys), func(i int, w *schema.RowWriter) { w.Ints(tc.keys[i], 0) })
		if err == nil || !strings.Contains(err.Error(), "accounts") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming accounts and %s", tc.name, err, tc.want)
		}
		if tbl.Len() != 0 || tbl.rowBytes() != 64 {
			t.Errorf("%s: a rejected load left %d rows, %d row bytes", tc.name, tbl.Len(), tbl.rowBytes())
		}
	}
	tbl, _ := testManager(t).CreateTable(accountsDef(), nil, nil)
	gen := func(i int, w *schema.RowWriter) { w.Ints(int64(i), 0) }
	if err := tbl.LoadFunc(3, gen); err != nil {
		t.Fatal(err)
	}
	if err := tbl.LoadFunc(3, gen); err == nil || !strings.Contains(err.Error(), "accounts") {
		t.Errorf("second load: err = %v, want one naming accounts", err)
	}
	if tbl.Len() != 3 {
		t.Errorf("second load left %d rows, want 3", tbl.Len())
	}
}

// TestLoadFuncRowBytesMatchesPerRow: the bulk load folds row sizes into the
// moving average in generation order, with the integer arithmetic of one
// Insert per row, so every virtual cost priced from rowBytes is unchanged.
func TestLoadFuncRowBytesMatchesPerRow(t *testing.T) {
	def := &schema.Table{
		Name:       "wide",
		Columns:    []schema.Column{{Name: "id", Type: schema.Int64}, {Name: "pad", Type: schema.String}},
		PrimaryKey: "id",
	}
	pad := func(i int) string { return strings.Repeat("x", (i*37)%300) }
	gen := func(i int, w *schema.RowWriter) { w.Int(int64(i)); w.Str(pad(i)) }
	const n = 5000
	loaded, _ := testManager(t).CreateTable(def, btree.UniformBounds(n, 4), nil)
	if err := loaded.LoadFunc(n, gen); err != nil {
		t.Fatal(err)
	}
	inserted, _ := testManager(t).CreateTable(def, btree.UniformBounds(n, 4), nil)
	avg := 0
	for i := range n {
		r := schema.Row{int64(i), pad(i)}
		if _, err := inserted.Insert(0, schema.KeyFromInt(int64(i)), r); err != nil {
			t.Fatal(err)
		}
		if avg == 0 {
			avg = r.Size()
		} else {
			avg = (avg*15 + r.Size()) / 16
		}
	}
	if loaded.rowBytes() != avg || inserted.rowBytes() != avg {
		t.Errorf("rowBytes: loaded %d, inserted %d, per-row reference %d", loaded.rowBytes(), inserted.rowBytes(), avg)
	}
}

// TestLoadAllocBudget: a load costs no allocation per row, only the staging
// slices, the slab (rows of one length take one allocation) and the B-tree's
// nodes and arrays, about one leaf per 63 rows. The generator writes through
// the load's writer, so it allocates nothing itself.
func TestLoadAllocBudget(t *testing.T) {
	const n = 100_000
	m := testManager(t)
	def := accountsDef()
	allocs := testing.AllocsPerRun(3, func() {
		tbl := &Table{def: def, layout: def.Layout(), domain: m.domain}
		tbl.tree, _ = btree.NewMultiRooted(btree.UniformBounds(n, 32))
		if err := tbl.LoadFunc(n, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i)) }); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / n
	if perRow > 0.02 {
		t.Errorf("LoadFunc costs %.4f allocs/row (%.0f per %d-row load), budget 0.02", perRow, allocs, n)
	}
	t.Logf("%.4f allocs/row (%.0f per %d-row load into 32 partitions)", perRow, allocs, n)
}

// TestLoadBytesPerRow: a loaded table keeps its keys (1 B a row: each leaf's
// span of dense keys packs in a byte), its leaves' ends (2 B: a leaf's rows
// total under 64 KiB) and its rows' bytes (6 B for two Int64 columns below
// 2^20, three varint bytes each), and its nodes, about 2.4 B a row: 12 B a row
// in all. Keys of 8 B and ends of 4 B a row held 19.7 B a row; a row is not an
// allocation of its own with a slice header in its leaf (48 B a row), nor 8
// fixed bytes per Int64 column (29.9 B a row).
func TestLoadBytesPerRow(t *testing.T) {
	const n = 100_000
	m := testManager(t)
	def := accountsDef()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := &Table{def: def, layout: def.Layout(), domain: m.domain}
	tbl.tree, _ = btree.NewMultiRooted(btree.UniformBounds(n, 32))
	if err := tbl.LoadFunc(n, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i)) }); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	if budget := 12.0; perRow > budget {
		t.Errorf("a loaded table holds %.1f B/row, budget %.1f", perRow, budget)
	}
	t.Logf("%.1f B/row retained", perRow)
}

func TestHomes(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), btree.UniformBounds(100, 2), []topology.SocketID{1})
	// homes shorter than bounds: last value repeated.
	if tbl.Home(0) != 1 || tbl.Home(1) != 1 {
		t.Errorf("homes = %v", tbl.Homes())
	}
	if err := tbl.SetHome(1, 3); err != nil {
		t.Fatal(err)
	}
	if tbl.Home(1) != 3 {
		t.Error("SetHome not applied")
	}
	if err := tbl.SetHome(9, 1); err == nil {
		t.Error("out of range SetHome should fail")
	}
	if tbl.Home(9) != 0 {
		t.Error("out of range Home should return 0")
	}
	if len(tbl.Homes()) != 2 {
		t.Errorf("Homes = %v", tbl.Homes())
	}
}

func TestSplitMergeRepartition(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), []schema.Key{0}, []topology.SocketID{2})
	tbl.LoadFunc(100, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i)) })

	newIdx, moved, err := tbl.Split(schema.KeyFromInt(50))
	if err != nil {
		t.Fatal(err)
	}
	if newIdx != 1 || moved != 50 {
		t.Errorf("Split -> idx %d moved %d", newIdx, moved)
	}
	if tbl.Home(1) != 2 {
		t.Errorf("new partition should inherit home 2, got %d", tbl.Home(1))
	}
	if _, _, err := tbl.Split(schema.KeyFromInt(50)); err == nil {
		t.Error("split at existing bound should fail")
	}

	movedBack, err := tbl.Merge(0)
	if err != nil {
		t.Fatal(err)
	}
	if movedBack != 50 || tbl.NumPartitions() != 1 {
		t.Errorf("Merge moved %d rows, %d partitions left", movedBack, tbl.NumPartitions())
	}
	if _, err := tbl.Merge(0); err == nil {
		t.Error("merging the only partition should fail")
	}
	if _, err := tbl.Merge(-1); err == nil {
		t.Error("negative merge index should fail")
	}

	moved, err = tbl.Repartition(btree.UniformBounds(100, 5), []topology.SocketID{0, 1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 5 || tbl.Len() != 100 {
		t.Errorf("after repartition: %d partitions, %d rows", tbl.NumPartitions(), tbl.Len())
	}
	if tbl.Home(3) != 3 {
		t.Errorf("home 3 = %d", tbl.Home(3))
	}
	if _, err := tbl.Repartition(nil, nil); err == nil {
		t.Error("invalid repartition bounds should fail")
	}
	sizes := tbl.PartitionSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 100 {
		t.Errorf("partition sizes sum to %d", total)
	}
	if tbl.PartitionFor(schema.KeyFromInt(99)) != 4 {
		t.Errorf("PartitionFor(99) = %d", tbl.PartitionFor(schema.KeyFromInt(99)))
	}
	if len(tbl.Bounds()) != 5 {
		t.Errorf("Bounds = %v", tbl.Bounds())
	}
	_ = moved
}

// TestRepartitioningMovedCounts pins the row counts the virtual cost of a
// repartitioning is billed from, on a fixed script over keys 0, 3, 6, … 2997.
// The counts were captured with the row-by-row B-tree Split/Merge/Repartition;
// the path-cutting one must return the same, including Repartition's rule that
// an old partition whose index is past the new partition count is moved
// wholesale even when its lower bound survives (the last step).
func TestRepartitioningMovedCounts(t *testing.T) {
	m := testManager(t)
	tbl, _ := m.CreateTable(accountsDef(), []schema.Key{0, 750, 1500, 2250}, []topology.SocketID{0, 1, 2, 3})
	if err := tbl.LoadFunc(1000, func(i int, w *schema.RowWriter) { w.Ints(int64(3*i), int64(i)) }); err != nil {
		t.Fatal(err)
	}
	k := schema.KeyFromInt
	steps := []struct {
		name      string
		do        func() (idx, moved int, err error)
		idx       int
		moved     int
		fails     bool
		wantSizes []int
	}{
		{name: "split inside", do: func() (int, int, error) { return tbl.Split(k(300)) },
			idx: 1, moved: 150, wantSizes: []int{100, 150, 250, 250, 250}},
		{name: "split at existing bound", do: func() (int, int, error) { return tbl.Split(k(300)) },
			fails: true, wantSizes: []int{100, 150, 250, 250, 250}},
		{name: "split beyond the data", do: func() (int, int, error) { return tbl.Split(k(5000)) },
			idx: 5, moved: 0, wantSizes: []int{100, 150, 250, 250, 250, 0}},
		{name: "merge", do: func() (int, int, error) { n, err := tbl.Merge(0); return 0, n, err },
			moved: 150, wantSizes: []int{250, 250, 250, 250, 0}},
		{name: "merge out of range", do: func() (int, int, error) { n, err := tbl.Merge(7); return 0, n, err },
			fails: true, wantSizes: []int{250, 250, 250, 250, 0}},
		{name: "merge an empty partition", do: func() (int, int, error) { n, err := tbl.Merge(3); return 0, n, err },
			moved: 0, wantSizes: []int{250, 250, 250, 250}},
		{name: "repartition to identical bounds", do: func() (int, int, error) {
			n, err := tbl.Repartition([]schema.Key{0, 750, 1500, 2250}, nil)
			return 0, n, err
		}, moved: 0, wantSizes: []int{250, 250, 250, 250}},
		{name: "repartition growing", do: func() (int, int, error) {
			n, err := tbl.Repartition([]schema.Key{0, 500, 750, 1500, 2000, 2250}, nil)
			return 0, n, err
		}, moved: 166, wantSizes: []int{167, 83, 250, 167, 83, 250}},
		{name: "repartition shifted", do: func() (int, int, error) {
			n, err := tbl.Repartition([]schema.Key{0, 600, 750, 1400, 2000, 2300}, nil)
			return 0, n, err
		}, moved: 533, wantSizes: []int{200, 50, 217, 200, 100, 233}},
		{name: "repartition shrinking", do: func() (int, int, error) {
			n, err := tbl.Repartition([]schema.Key{0, 2300}, nil)
			return 0, n, err
		}, moved: 800, wantSizes: []int{767, 233}},
	}
	for _, s := range steps {
		idx, moved, err := s.do()
		if (err != nil) != s.fails {
			t.Fatalf("%s: err = %v, want failure %v", s.name, err, s.fails)
		}
		if idx != s.idx || moved != s.moved {
			t.Errorf("%s: idx %d moved %d, want idx %d moved %d", s.name, idx, moved, s.idx, s.moved)
		}
		if got := tbl.PartitionSizes(); !reflect.DeepEqual(got, s.wantSizes) {
			t.Errorf("%s: sizes %v, want %v", s.name, got, s.wantSizes)
		}
		if len(tbl.Homes()) != tbl.NumPartitions() || tbl.Len() != 1000 {
			t.Errorf("%s: %d homes for %d partitions, %d rows", s.name, len(tbl.Homes()), tbl.NumPartitions(), tbl.Len())
		}
	}
}
