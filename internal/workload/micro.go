package workload

import (
	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

// tenColumnTable builds the microbenchmark table of Section III: an integer
// primary key plus ten integer payload columns.
func tenColumnTable(name string) *schema.Table {
	cols := []schema.Column{{Name: "id", Type: schema.Int64}}
	for i := 0; i < 10; i++ {
		cols = append(cols, schema.Column{Name: fmtCol(i), Type: schema.Int64})
	}
	return &schema.Table{Name: name, Columns: cols, PrimaryKey: "id"}
}

func fmtCol(i int) string { return "c" + string(rune('0'+i)) }

// siteKeyRange returns the key range [lo, hi) that instance site serves when
// the key space [0, maxKey) is split over numSites instances. It uses the
// same arithmetic as btree.UniformBounds (bound i = maxKey*i/n), so a key the
// generator considers "local" is local by the placement's reckoning too —
// even when the instance count does not divide the row count. Before this
// alignment the generators used maxKey/numSites with truncation, which leaked
// a few "local" keys into the neighbouring instance on such machines (visible
// as nonzero communication at 0% multisite on 32-site deployments).
func siteKeyRange(maxKey int64, site, numSites int) (lo, hi int64) {
	if numSites < 1 || maxKey < int64(numSites) {
		return 0, maxKey
	}
	if site < 0 {
		site = 0
	}
	if site >= numSites {
		site = numSites - 1
	}
	lo = maxKey * int64(site) / int64(numSites)
	hi = maxKey * int64(site+1) / int64(numSites)
	if hi <= lo {
		return 0, maxKey
	}
	return lo, hi
}

// siteMemo is the last siteKeyRange a generator context computed, keyed on
// its arguments. Its zero value is a valid entry: siteKeyRange(0, 0, 0) is
// (0, 0).
type siteMemo struct {
	maxKey         int64
	site, numSites int
	lo, hi         int64
}

// siteKeyRange is siteKeyRange(maxKey, ctx.HomeSite, ctx.NumSites), computed
// only when one of the three changed since the previous call.
func (ctx *GenContext) siteKeyRange(maxKey int64) (lo, hi int64) {
	m := &ctx.site
	if m.maxKey != maxKey || m.site != ctx.HomeSite || m.numSites != ctx.NumSites {
		lo, hi = siteKeyRange(maxKey, ctx.HomeSite, ctx.NumSites)
		*m = siteMemo{maxKey: maxKey, site: ctx.HomeSite, numSites: ctx.NumSites, lo: lo, hi: hi}
	}
	return m.lo, m.hi
}

func tenColumnRow(i int, w *schema.RowWriter) {
	w.Int(int64(i))
	for c := 1; c < 11; c++ {
		w.Int(int64(i * c))
	}
}

// microWorkload is the shape every single-table microbenchmark shares: a
// rows-sized tenColumnTable, the given flow graphs keyed by class and a fixed
// class mix.
func microWorkload(name, table string, rows int, mix map[string]float64, graphs ...*FlowGraph) *Workload {
	w := &Workload{
		Name:         name,
		Tables:       []TableDef{{Schema: tenColumnTable(table), Rows: rows, MaxKey: int64(rows), RowGen: tenColumnRow}},
		Graphs:       make(map[string]*FlowGraph, len(graphs)),
		ClassWeights: func(vclock.Nanos) map[string]float64 { return mix },
	}
	for _, g := range graphs {
		w.Graphs[g.Class] = g
	}
	return w
}

// accesses is the one-node flow graph of a class that applies op to n rows
// of table.
func accesses(class, table string, op OpType, n int, syncs ...FlowSync) *FlowGraph {
	return &FlowGraph{Class: class, Nodes: []FlowNode{{Table: table, Op: op, MinCount: n, MaxCount: n}}, Syncs: syncs}
}

// percent clamps p to [0, 100].
func percent(p int) int { return min(max(p, 0), 100) }

// SingleRowRead is the perfectly partitionable microbenchmark of Figures 1, 2
// and 5: every transaction reads one row of a ten-integer-column table, from
// the key range of the generating worker's own instance, as in the paper's
// Figure 2/5 setup.
func SingleRowRead(rows int) *Workload {
	const class, table = "ReadOne", "mbr"
	w := microWorkload("single-row-read", table, rows, map[string]float64{class: 1}, accesses(class, table, Read, 1))
	w.Generate = func(ctx *GenContext) *Transaction {
		lo, hi := ctx.siteKeyRange(int64(rows))
		t := ctx.Txn(class)
		t.ReadOnly = true
		t.Add(table, Read, schema.KeyFromInt(lo+ctx.Rng.Int63n(hi-lo)))
		return t
	}
	return w
}

// ReadHundred is the remote-memory microbenchmark of Section III-D (Table I):
// each transaction reads 100 rows chosen uniformly at random from a large
// table, defeating caches and prefetchers.
func ReadHundred(rows int) *Workload {
	const class, table = "Read100", "mbig"
	w := microWorkload("read-100-random-rows", table, rows, map[string]float64{class: 1}, accesses(class, table, Read, 100))
	w.Generate = func(ctx *GenContext) *Transaction {
		t := ctx.Txn(class)
		t.ReadOnly = true
		// Each client reads from its own instance's dataset; the allocation
		// policy experiment (Table I) varies only where that dataset's memory
		// lives, not which instance serves the request.
		lo, hi := ctx.siteKeyRange(int64(rows))
		for i := 0; i < 100; i++ {
			t.Add(table, Read, schema.KeyFromInt(lo+ctx.Rng.Int63n(hi-lo)))
		}
		return t
	}
	return w
}

// MultisiteUpdate is the microbenchmark of Figures 3 and 4: local
// transactions update 10 rows of the generating worker's own site, while
// multi-site transactions update 1 local row and 9 rows chosen uniformly from
// the whole dataset. pctMultiSite is the percentage (0..100) of multi-site
// transactions.
func MultisiteUpdate(rows int, pctMultiSite int) *Workload {
	return multisiteUpdate("multisite-update", rows, func(vclock.Nanos) int { return pctMultiSite })
}

// MultisiteUpdateDrifting is MultisiteUpdate with a time-varying multisite
// probability: pctAt maps the virtual time of the generating transaction to
// the percentage (0..100) of multi-site transactions in force at that moment.
// It is the workload of the adaptive-granularity experiment: as the share
// drifts across the island-size crossover, the statically-best island level
// changes, and an adaptive deployment must re-wire itself to follow.
func MultisiteUpdateDrifting(rows int, pctAt func(vclock.Nanos) int) *Workload {
	return multisiteUpdate("multisite-update-drift", rows, pctAt)
}

// multisiteUpdate is the generator of both multisite microbenchmarks.
func multisiteUpdate(name string, rows int, pctAt func(vclock.Nanos) int) *Workload {
	const (
		localClass = "UpdateLocal10"
		multiClass = "UpdateMultiSite"
		table      = "mupd"
	)
	w := microWorkload(name, table, rows, nil,
		accesses(localClass, table, Update, 10),
		accesses(multiClass, table, Update, 10, FlowSync{Nodes: []int{0}, Bytes: 88}))
	w.ClassWeights = func(at vclock.Nanos) map[string]float64 {
		pct := percent(pctAt(at))
		return map[string]float64{
			localClass: float64(100 - pct),
			multiClass: float64(pct),
		}
	}
	w.Generate = func(ctx *GenContext) *Transaction {
		pct := percent(pctAt(ctx.At))
		lo, hi := ctx.siteKeyRange(int64(rows))
		localKey := func() schema.Key {
			return schema.KeyFromInt(lo + ctx.Rng.Int63n(hi-lo))
		}
		if ctx.Rng.Intn(100) >= pct {
			t := ctx.Txn(localClass)
			for i := 0; i < 10; i++ {
				t.Add(table, Update, localKey())
			}
			return t
		}
		t := ctx.Txn(multiClass)
		t.MultiSite = true
		t.Add(table, Update, localKey())
		for i := 0; i < 9; i++ {
			t.Add(table, Update, schema.KeyFromInt(ctx.Rng.Int63n(int64(rows))))
		}
		// All ten updates synchronize at commit.
		t.AddSyncRange(88, 0, len(t.Actions))
		return t
	}
	return w
}

// TwoTableSimple is the simple transaction of Figure 6: two tables A and B;
// each transaction reads one row of A and the matching row of B, so the two
// actions must synchronize to combine their results.
func TwoTableSimple(rows int) *Workload {
	const class = "SimpleAB"
	w := &Workload{
		Name: "two-table-simple",
		Tables: []TableDef{
			{Schema: tenColumnTable("A"), Rows: rows, MaxKey: int64(rows), RowGen: tenColumnRow},
			{Schema: tenColumnTable("B"), Rows: rows, MaxKey: int64(rows), RowGen: tenColumnRow},
		},
		Graphs: map[string]*FlowGraph{
			class: {
				Class: class,
				Nodes: []FlowNode{
					{Table: "A", Op: Read, MinCount: 1, MaxCount: 1},
					{Table: "B", Op: Read, MinCount: 1, MaxCount: 1},
				},
				Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 88}},
			},
		},
		ClassWeights: func(vclock.Nanos) map[string]float64 {
			return map[string]float64{class: 1}
		},
	}
	w.Generate = func(ctx *GenContext) *Transaction {
		id := ctx.Rng.Int63n(int64(rows))
		key := schema.KeyFromInt(id)
		t := ctx.Txn(class)
		t.ReadOnly = true
		t.Add("A", Read, key)
		t.Add("B", Read, key)
		t.AddSync(88, 0, 1)
		return t
	}
	return w
}
