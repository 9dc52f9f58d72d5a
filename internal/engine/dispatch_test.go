package engine

import (
	"slices"
	"testing"

	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/workload"
)

// TestPricedSkipsUndeclaredTable: an action on a table the workload does not
// declare is skipped by every design, as executed mode skips it
// (TestExecutedSkipsUndeclaredTable), instead of reaching storage without a
// table. Two undeclared updates outnumber the one declared read, so owner
// routing must also keep the coordinator when the dominant table is unknown.
func TestPricedSkipsUndeclaredTable(t *testing.T) {
	const rows, txns = 64, 500
	for d := Design(0); int(d) < len(designRows); d++ {
		t.Run(d.String(), func(t *testing.T) {
			wl := workload.MultisiteUpdate(rows, 0)
			wl.Generate = func(ctx *workload.GenContext) *workload.Transaction {
				txn := ctx.Txn("UpdateLocal10")
				key := schema.KeyFromInt(ctx.Rng.Int63n(rows))
				txn.Add("undeclared", workload.Update, key)
				txn.Add("mupd", workload.Read, key)
				txn.Add("undeclared", workload.Update, key)
				return txn
			}
			e := MustNew(Config{Design: d, Workload: wl, Topology: smallTopology(), Monitoring: true})
			res, err := e.Run(RunOptions{Transactions: txns, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != txns {
				t.Errorf("committed %d of %d read-only transactions", res.Committed, txns)
			}
			if res.Log.LogicalRecords != 0 {
				t.Errorf("logged %d records for actions on an undeclared table, want 0", res.Log.LogicalRecords)
			}
		})
	}
}

// TestBoundsAgreeAcrossLayers pins the invariant that lets storage and the
// monitor take the partition dispatch resolved instead of searching their own
// copies of the bounds (DESIGN.md §7): after every snapshot install of a run
// that repartitions, each table's placement bounds, its tree's bounds and the
// bounds its monitoring arrays were registered with are equal, and dispatch
// resolves every action to the partition the table's tree routes its key to.
// The loop is Run's, so the planner installs snapshots at the same points.
func TestBoundsAgreeAcrossLayers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (Config, RunOptions)
	}{
		{"adaptive-drift-atrapos", adaptiveDriftRun},
		{"adaptive-granularity-fail-restore", granularityFailRestoreRun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opts := tc.build(t)
			e := MustNew(cfg)
			e.adaptive.reset()
			var faults []fault.Event
			if opts.Faults != nil {
				faults = opts.Faults.Events()
			}
			var gen txnSource
			sc := newExecScratch()
			var seen *stateSnapshot
			var committed int64
			installs := 0
			for n := int64(1); n <= int64(opts.Transactions) && e.virtualNow() < opts.Duration; n++ {
				for len(faults) > 0 && e.virtualNow() >= faults[0].At {
					e.applyFault(faults[0])
					faults = faults[1:]
				}
				if sc.snap = e.snap; sc.snap != seen {
					seen = sc.snap
					installs++
					checkBoundsAgree(t, e, n)
				}
				alive := e.aliveCores()
				coord := alive[int(n)%len(alive)].ID
				txn := gen.generate(e.wl, opts.Seed, n, e.coreTime(coord), sc.snap.wiring.siteOf(coord), sc.snap.numSites())
				coord = e.dispatch(coord, txn, sc)
				for i, ra := range sc.acts {
					a := txn.Actions[i]
					if ra.table < 0 {
						t.Fatalf("txn %d: dispatch left an action on %s unresolved", n, a.Table)
					}
					if want := e.tables[ra.table].PartitionFor(a.Key); ra.part != want {
						t.Fatalf("txn %d: dispatch put %s key %d in partition %d, its tree in %d", n, a.Table, a.Key, ra.part, want)
					}
				}
				if e.execute(coord, txn, sc) {
					committed++
					e.accounts[coord].committed++
				}
				e.noteTime(coord)
				e.adaptive.recordTxn(coord, txn)
				e.adaptive.noteBoundary(committed, n-committed)
			}
			if installs < 2 {
				t.Fatalf("the run installed no snapshot after construction (%d commits)", committed)
			}
			t.Logf("%d snapshots checked over %d commits", installs, committed)
		})
	}
}

// checkBoundsAgree fails the test unless every table's three copies of its
// partition bounds (placement, tree, monitor) are equal.
func checkBoundsAgree(t *testing.T, e *Engine, n int64) {
	t.Helper()
	snap := e.snap
	for ti, td := range e.wl.Tables {
		name := td.Schema.Name
		place, tree, mon := snap.tps[ti].Bounds, e.tables[ti].Bounds(), e.adaptive.monitor.Bounds(name)
		if !slices.Equal(place, tree) || !slices.Equal(place, mon) {
			t.Fatalf("before txn %d, table %s: placement bounds %v, tree bounds %v, monitor bounds %v", n, name, place, tree, mon)
		}
	}
}
