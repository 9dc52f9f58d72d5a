package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
)

// TestExecuteOutcomesPinned pins what executing a plan does: the cost, the
// planned split, merge and move counts, and the resulting bounds, homes and
// row count of the table, for Figure 9's merge, split and 2n→2n pairs at the
// quick scale plus seeded random (current, desired) pairs over a small table.
// The hash was captured before the plan's action list was removed.
func TestExecuteOutcomesPinned(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
	domain := numa.NewDomain(top)
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	run := func(rows int, cur, want *partition.TablePlacement) {
		store := storage.NewManager(domain)
		def := &schema.Table{
			Name:       "A",
			Columns:    []schema.Column{{Name: "id", Type: schema.Int64}, {Name: "v", Type: schema.Int64}},
			PrimaryKey: "id",
		}
		tbl, err := store.CreateTable(def, cur.Bounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.LoadFunc(rows, func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i)) }); err != nil {
			t.Fatal(err)
		}
		current, desired := partition.NewPlacement(), partition.NewPlacement()
		current.Tables["A"], desired.Tables["A"] = cur, want
		out, err := NewExecutor(DefaultExecutorConfig(), domain, store).Execute(BuildPlan(current, desired, top))
		if err != nil {
			t.Fatal(err)
		}
		put(int64(out.Cost), int64(out.Splits), int64(out.Merges), int64(out.Moves), int64(tbl.Len()))
		for i, b := range tbl.Bounds() {
			put(int64(b), int64(tbl.Home(i)))
		}
	}
	cores := func(n, shift int) []topology.CoreID {
		out := make([]topology.CoreID, n)
		for i := range out {
			out[i] = topology.CoreID((i + shift) % top.NumCores())
		}
		return out
	}
	uniform := func(rows, parts, shift int) *partition.TablePlacement {
		return &partition.TablePlacement{Table: "A", Bounds: btree.UniformBounds(int64(rows), parts), Cores: cores(parts, shift)}
	}
	// Figure 9 at the quick scale: 16 cores, 8,000 rows.
	const figRows = 8000
	for n := 2; n <= 16; n += 2 {
		run(figRows, uniform(figRows, 2*n, 0), uniform(figRows, n+1, 8))
		run(figRows, uniform(figRows, n+1, 0), uniform(figRows, 2*n+1, 8))
		run(figRows, uniform(figRows, 2*n, 0), uniform(figRows, 2*n, 8))
	}
	// Nothing planned: the executor leaves the table alone.
	run(figRows, uniform(figRows, 4, 0), uniform(figRows, 4, 0))

	// Random pairs: bounds drawn from a grid of 100-key steps, owners from
	// every socket.
	const rows = 2000
	rng := rand.New(rand.NewSource(47))
	draw := func() *partition.TablePlacement {
		tp := &partition.TablePlacement{Table: "A", Bounds: []schema.Key{0}}
		for k := int64(100); k < rows; k += 100 {
			if rng.Intn(3) == 0 {
				tp.Bounds = append(tp.Bounds, schema.KeyFromInt(k))
			}
		}
		for range tp.Bounds {
			tp.Cores = append(tp.Cores, topology.CoreID(rng.Intn(top.NumCores())))
		}
		return tp
	}
	for i := 0; i < 50; i++ {
		run(rows, draw(), draw())
	}
	if got, want := h.Sum64(), uint64(0xd5b5d4f42852d6ba); got != want {
		t.Errorf("execute outcomes hash = %#x, want %#x", got, want)
	}
}
