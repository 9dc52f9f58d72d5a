package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/workload"
)

// loadProcs are the GOMAXPROCS values the loader is compared at: one inline
// worker, the worker count of a 2-vCPU host, and more workers than cores.
var loadProcs = []int{1, 2, 8}

// withProcs runs fn at GOMAXPROCS n and restores the previous value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestLoadDataMatchesSerialLoad checks that engine.New's chunked, parallel
// load builds every table exactly as a serial LoadFunc into a fresh table on
// the same bounds and homes does, at any GOMAXPROCS: the same key and row
// stream, the same partition sizes, and the same priced cost of a read in
// every partition (which depends on the tables' row-size average). Each
// workload's tables span several loadChunk-row chunks. Every table of the
// paper's workloads has rows of one size, so one more table varies its row
// sizes: its average depends on the order the sizes are folded in. A load
// that fails fails as a serial one does (loadErrorsMatchSerialLoad).
func TestLoadDataMatchesSerialLoad(t *testing.T) {
	varying := workload.SingleRowRead(3*loadChunk + 100)
	varying.Name = "varying-row-sizes"
	def := *varying.Tables[0].Schema
	def.Columns = append([]schema.Column(nil), def.Columns...)
	def.Columns[len(def.Columns)-1].Type = schema.String
	varying.Tables[0].Schema = &def
	varying.Tables[0].RowGen = func(i int, w *schema.RowWriter) {
		for c := range len(def.Columns) - 1 {
			w.Int(int64(i * max(c, 1)))
		}
		w.Str(strings.Repeat("x", i*7919%251))
	}
	workloads := []*workload.Workload{
		workload.MustTATP(workload.TATPOptions{Subscribers: 20_000}),
		workload.MustTPCC(workload.TPCCOptions{Warehouses: 1, CustomersPerDistrict: 300, Items: 20_000}),
		workload.YCSB(50_000, workload.YCSBB),
		workload.ZipfHotkey(50_000, 10, 30),
		varying,
	}
	for _, wl := range workloads {
		// The serial reference is built once per workload, on the bounds and
		// homes of the first engine; every later engine must place alike.
		var want []*storage.Table
		var wantTop *topology.Topology
		for _, procs := range loadProcs {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", wl.Name, procs), func(t *testing.T) {
				var e *Engine
				var err error
				withProcs(procs, func() {
					e, err = New(Config{Design: ATraPos, Workload: wl, Topology: smallTopology()})
				})
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					store := storage.NewManager(e.domain)
					wantTop = e.domain.Top
					for ti, td := range wl.Tables {
						tbl, err := store.CreateTable(td.Schema, e.tables[ti].Bounds(), e.tables[ti].Homes())
						if err != nil {
							t.Fatal(err)
						}
						if err := tbl.LoadFunc(td.Rows, td.RowGen); err != nil {
							t.Fatal(err)
						}
						want = append(want, tbl)
					}
				}
				for ti, got := range e.tables {
					sameTable(t, got, e.domain.Top, want[ti], wantTop)
				}
			})
		}
	}
	loadErrorsMatchSerialLoad(t)
}

// sameTable fails t unless got and want hold the same rows in the same
// partitions and price a read in each partition alike: the same cost and the
// same bytes of memory traffic recorded on their machines, which is the
// table's row-size average.
func sameTable(t *testing.T, got *storage.Table, gotTop *topology.Topology, want *storage.Table, wantTop *topology.Topology) {
	t.Helper()
	name := want.Name()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, serial load has %d", name, got.Len(), want.Len())
	}
	if g, w := got.Bounds(), want.Bounds(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: bounds %v, serial load has %v", name, g, w)
	}
	if g, w := got.Homes(), want.Homes(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: homes %v, serial load has %v", name, g, w)
	}
	if g, w := got.PartitionSizes(), want.PartitionSizes(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: partition sizes %v, serial load has %v", name, g, w)
	}
	type entry struct {
		key schema.Key
		row schema.Row
	}
	var wantRows []entry
	want.Scan(0, 0, math.MaxUint64, func(k schema.Key, r schema.Row) bool {
		wantRows = append(wantRows, entry{k, r})
		return true
	})
	i := 0
	got.Scan(0, 0, math.MaxUint64, func(k schema.Key, r schema.Row) bool {
		if i >= len(wantRows) || k != wantRows[i].key || !reflect.DeepEqual(r, wantRows[i].row) {
			t.Fatalf("%s: scan entry %d is (%d, %v), serial load differs", name, i, k, r)
		}
		i++
		return true
	})
	if i != len(wantRows) {
		t.Fatalf("%s: scan visited %d rows, serial load %d", name, i, len(wantRows))
	}
	read := func(tbl *storage.Table, top *topology.Topology, key schema.Key) (numa.Cost, int64, error) {
		before := top.Traffic()
		_, cost, err := tbl.Read(0, key)
		after := top.Traffic()
		return cost, after.InterconnectBytes + after.LocalBytes - before.InterconnectBytes - before.LocalBytes, err
	}
	for p, bound := range want.Bounds() {
		gc, gb, gerr := read(got, gotTop, bound)
		wc, wb, werr := read(want, wantTop, bound)
		if gc != wc || gb != wb || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s partition %d: read costs %d and moves %d B (%v), serial load %d and %d B (%v)",
				name, p, gc, gb, gerr, wc, wb, werr)
		}
	}
}

// serialLoadError loads wl's tables one after the other, each into a fresh
// single-partition table, and returns the first error as engine.New words it.
func serialLoadError(t *testing.T, wl *workload.Workload) error {
	t.Helper()
	store := storage.NewManager(numa.NewDomain(smallTopology()))
	for _, td := range wl.Tables {
		tbl, err := store.CreateTable(td.Schema, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.LoadFunc(td.Rows, td.RowGen); err != nil {
			return fmt.Errorf("engine: loading %s: %w", td.Schema.Name, err)
		}
	}
	return nil
}

// loadErrorsMatchSerialLoad feeds engine.New generators that fail and checks,
// at every GOMAXPROCS, that it reports the row a serial load stops at and
// leaves no loader goroutine behind:
//   - bad key types in chunks 3 and 1, where chunk 3's error is made to arrive
//     first whenever there are several workers: chunk 1's row is reported;
//   - a key that repeats across a chunk boundary, which only Finish sees;
//   - a repeated key in the first table and a bad row in the second: the
//     first table's error is reported, as a load table by table stops there.
func loadErrorsMatchSerialLoad(t *testing.T) {
	const (
		early = 1*loadChunk + 5
		late  = 3*loadChunk + 7
	)
	badKeys := func(lateSeen chan struct{}) *workload.Workload {
		wl := workload.SingleRowRead(5 * loadChunk)
		gen := wl.Tables[0].RowGen
		wl.Tables[0].RowGen = func(i int, w *schema.RowWriter) {
			switch i {
			case late:
				close(lateSeen)
				w.Str("x") // not the Int64 key column
			case early:
				if runtime.GOMAXPROCS(0) > 1 {
					select {
					case <-lateSeen:
						// Let chunk 3's worker return its error first.
						time.Sleep(20 * time.Millisecond)
					case <-time.After(5 * time.Second):
					}
				}
				w.Str("x") // not the Int64 key column
			}
			gen(i, w)
		}
		return wl
	}
	repeatAt := func(gen func(int, *schema.RowWriter), at int) func(int, *schema.RowWriter) {
		return func(i int, w *schema.RowWriter) {
			if i == at {
				i-- // the previous row again, key and all
			}
			gen(i, w)
		}
	}
	// wl builds a case's workload; the reference builds the one the serial
	// load reads, which must not wait for a row it never reaches.
	cases := []struct {
		name string
		wl   func(reference bool) *workload.Workload
	}{
		{"bad-key-chunks-3-and-1", func(reference bool) *workload.Workload {
			lateSeen := make(chan struct{})
			if reference {
				close(lateSeen)
			}
			return badKeys(lateSeen)
		}},
		{"repeat-across-chunk-boundary", func(bool) *workload.Workload {
			wl := workload.SingleRowRead(3 * loadChunk)
			wl.Tables[0].RowGen = repeatAt(wl.Tables[0].RowGen, loadChunk)
			return wl
		}},
		{"earlier-table-first", func(bool) *workload.Workload {
			wl := workload.TwoTableSimple(2 * loadChunk)
			wl.Tables[0].RowGen = repeatAt(wl.Tables[0].RowGen, loadChunk+1)
			gen := wl.Tables[1].RowGen
			wl.Tables[1].RowGen = func(i int, w *schema.RowWriter) {
				if i == 3 {
					w.Str("x") // not the Int64 key column
				}
				gen(i, w)
			}
			return wl
		}},
	}
	for _, tc := range cases {
		want := serialLoadError(t, tc.wl(true))
		if want == nil {
			t.Fatalf("%s: the serial load succeeded", tc.name)
		}
		for _, procs := range loadProcs {
			t.Run(fmt.Sprintf("error/%s/GOMAXPROCS=%d", tc.name, procs), func(t *testing.T) {
				wl := tc.wl(false)
				baseline := runtime.NumGoroutine()
				var err error
				withProcs(procs, func() {
					_, err = New(Config{Design: ATraPos, Workload: wl, Topology: smallTopology()})
				})
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("New error:\n  %v\nserial load:\n  %v", err, want)
				}
				// The workers are joined before New returns; give an exiting
				// goroutine a moment to leave the count after wg.Done.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after New failed, %d before", runtime.NumGoroutine(), baseline)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
