package harness

import (
	"fmt"

	"atrapos/internal/btree"
	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// row is one row of a grid figure: its leading cells, and the workload and
// machine every column of the row runs on.
type row struct {
	lead []string
	wl   *workload.Workload
	top  *topology.Topology
}

// column is one labelled engine configuration of a grid figure; the row
// supplies Workload and Topology. place derives the hardware-aware
// partitioning and placement from the row's workload and machine (figures
// whose rows share one workload put a Placement in cfg directly).
type column struct {
	label string
	cfg   engine.Config
	place bool
}

// designs returns one column per design, labelled with the design's name.
func designs(ds ...engine.Design) []column {
	cols := make([]column, len(ds))
	for i, d := range ds {
		cols[i] = column{label: d.String(), cfg: engine.Config{Design: d}}
	}
	return cols
}

// The paper's two fixed-grain shared-nothing configurations: one instance per
// core (extreme, H-Store style) and one per socket (coarse).
var (
	snExtreme = column{label: "shared-nothing-extreme", cfg: engine.Config{Design: engine.SharedNothing, IslandLevel: topology.LevelCore}}
	snCoarse  = column{label: "shared-nothing-coarse", cfg: engine.Config{Design: engine.SharedNothing, IslandLevel: topology.LevelSocket}}
)

// socketRows is the row axis of the scaling figures: the perfectly
// partitionable workload on 1, 2, 4, ... sockets.
func (s Scale) socketRows() []row {
	var rows []row
	for _, n := range s.socketSweep() {
		rows = append(rows, row{lead: []string{fmt.Sprint(n)}, wl: s.partitionableWorkload(), top: s.topologyWith(n)})
	}
	return rows
}

// multisiteRows is the row axis of Figures 3 and 4: the update microbenchmark
// at each percentage of multi-site transactions, on the scale's machine.
func (s Scale) multisiteRows(pcts ...int) []row {
	var rows []row
	for _, pct := range pcts {
		rows = append(rows, row{lead: []string{fmt.Sprint(pct)}, wl: workload.MultisiteUpdate(s.MicroRows, pct), top: s.Topology()})
	}
	return rows
}

// grid runs every column's configuration on every row — one fixed-transaction
// point per cell, row-major — and returns the results indexed [row][column].
func (s Scale) grid(rows []row, cols []column) ([][]*engine.Result, error) {
	out := make([][]*engine.Result, len(rows))
	for r, rw := range rows {
		out[r] = make([]*engine.Result, len(cols))
		for c, col := range cols {
			cfg := col.cfg
			cfg.Workload, cfg.Topology = rw.wl, rw.top
			if col.place {
				cfg.Placement = engine.DerivePlacement(rw.wl, rw.top, true)
			}
			res, err := s.run(cfg)
			if err != nil {
				return nil, err
			}
			out[r][c] = res
		}
	}
	return out, nil
}

// sweepTable fills t with one table row per grid row: the row's leading cells
// followed by cells of the results of its columns.
func (s Scale) sweepTable(t *Table, rows []row, cols []column, cells func([]*engine.Result) []string) (*Table, error) {
	results, err := s.grid(rows, cols)
	if err != nil {
		return nil, err
	}
	for r, rw := range rows {
		t.AddRow(append(rw.lead, cells(results[r])...)...)
	}
	return t, nil
}

// listTable fills t with one table row per labelled configuration, all run on
// one workload and machine: the label followed by cells of the
// configuration's result (and, for relative columns, the first one's).
func (s Scale) listTable(t *Table, wl *workload.Workload, top *topology.Topology, cols []column, cells func(res, first *engine.Result) []string) (*Table, error) {
	results, err := s.grid([]row{{wl: wl, top: top}}, cols)
	if err != nil {
		return nil, err
	}
	for c, col := range cols {
		t.AddRow(append([]string{col.label}, cells(results[0][c], results[0][0])...)...)
	}
	return t, nil
}

// each formats every result of a row with the same cell function.
func each(cell func(*engine.Result) string) func([]*engine.Result) []string {
	return func(results []*engine.Result) []string {
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = cell(res)
		}
		return out
	}
}

func tpsCell(res *engine.Result) string { return fmtTPS(res.ThroughputTPS) }

func usefulCell(res *engine.Result) string { return fmt.Sprintf("%.2f", res.UsefulFraction) }

// tpsOnly is the listTable formatter of the single-column ablations.
func tpsOnly(res, _ *engine.Result) []string { return []string{tpsCell(res)} }

// ratio returns a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Fig1 reproduces Figure 1: how efficiently each configuration uses the
// processor on a perfectly partitionable workload as sockets grow. The paper
// reports IPC from hardware counters; the reproduction reports the
// useful-work fraction (execution time / total busy time), the same "how much
// of the machine does real work" signal without hardware counters.
func Fig1(s Scale) (*Table, error) {
	return s.sweepTable(&Table{
		ID:     "fig1",
		Title:  "Useful-work fraction on a perfectly partitionable workload (IPC proxy)",
		Header: []string{"sockets", "extreme shared-nothing", "centralized", "plp"},
		Notes: []string{
			"The paper reports IPC; high centralized IPC there reflects spinning on contended locks.",
			"The useful-work fraction makes the same point directly: the share of cycles doing transaction work.",
		},
	}, s.socketRows(), append([]column{snExtreme}, designs(engine.Centralized, engine.PLP)...), each(usefulCell))
}

// Fig2 reproduces Figure 2: throughput of extreme shared-nothing, centralized
// and PLP on the perfectly partitionable single-row-read microbenchmark as
// the number of sockets grows.
func Fig2(s Scale) (*Table, error) {
	return scalingFigure(s, "fig2", "Throughput of the shared-nothing, centralized and PLP architectures",
		append([]column{snExtreme}, designs(engine.Centralized, engine.PLP)...))
}

// Fig5 reproduces Figure 5: the same scaling experiment including ATraPos and
// the coarse shared-nothing configuration.
func Fig5(s Scale) (*Table, error) {
	return scalingFigure(s, "fig5", "Throughput of a perfectly partitionable workload",
		append([]column{snExtreme, snCoarse}, designs(engine.ATraPos, engine.PLP)...))
}

func scalingFigure(s Scale, id, title string, cols []column) (*Table, error) {
	header := []string{"sockets"}
	for _, c := range cols {
		header = append(header, c.label)
	}
	return s.sweepTable(&Table{ID: id, Title: title, Header: header}, s.socketRows(), cols, each(tpsCell))
}

// Fig3 reproduces Figure 3: throughput of the shared-nothing configurations
// and the centralized design as the percentage of multi-site update
// transactions grows from 0 to 100.
func Fig3(s Scale) (*Table, error) {
	return s.sweepTable(&Table{
		ID:     "fig3",
		Title:  "Throughput as the percentage of multi-site transactions increases",
		Header: []string{"% multi-site", "extreme shared-nothing", "coarse shared-nothing", "centralized"},
	}, s.multisiteRows(0, 20, 40, 60, 80, 100),
		append([]column{snExtreme, snCoarse}, designs(engine.Centralized)...), each(tpsCell))
}

// Fig4 reproduces Figure 4: the per-transaction time breakdown of the coarse
// shared-nothing configuration as the percentage of multi-site transactions
// grows, split into the paper's five components.
func Fig4(s Scale) (*Table, error) {
	return s.sweepTable(&Table{
		ID:     "fig4",
		Title:  "Time breakdown per transaction, coarse shared-nothing (microseconds)",
		Header: []string{"% multi-site", "xct management", "xct execution", "communication", "locking", "logging"},
	}, s.multisiteRows(0, 25, 50, 75, 100), []column{snCoarse},
		func(r []*engine.Result) []string {
			var cells []string
			for _, comp := range vclock.Components() {
				cells = append(cells, fmtMicros(r[0].TimePerTransaction(comp)))
			}
			return cells
		})
}

// Table1 reproduces Table I: per-socket throughput of one shared-nothing
// instance per socket while the memory allocation policy varies between
// local, central (all data on the last node) and remote.
func Table1(s Scale) (*Table, error) {
	top := s.Topology()
	header := []string{"policy"}
	for i := 0; i < top.Sockets(); i++ {
		header = append(header, fmt.Sprintf("socket%d", i+1))
	}
	var cols []column
	for _, policy := range []numa.AllocPolicy{numa.AllocLocal, numa.AllocCentral, numa.AllocRemote} {
		cols = append(cols, column{label: policy.String(), cfg: engine.Config{
			Design:      engine.SharedNothing,
			IslandLevel: topology.LevelSocket,
			AllocPolicy: policy,
		}})
	}
	return s.listTable(&Table{
		ID:     "table1",
		Title:  "Throughput (TPS per socket) for various memory allocation policies",
		Header: append(header, "QPI/IMC"),
		Notes:  []string{"Local allocation should be fastest; central and remote lose single-digit percentages, and the interconnect-to-memory-controller traffic ratio jumps, as in the paper."},
	}, workload.ReadHundred(s.MicroRows), top, cols, func(res, _ *engine.Result) []string {
		var cells []string
		for _, st := range res.PerSocket {
			cells = append(cells, fmt.Sprintf("%.0f", st.Throughput))
		}
		return append(cells, fmt.Sprintf("%.2f", res.QPIToIMCRatio))
	})
}

// Fig6 reproduces Figure 6: the simple two-table transaction under the five
// partitioning and placement strategies the paper compares.
func Fig6(s Scale) (*Table, error) {
	wl := workload.TwoTableSimple(s.MicroRows)
	top := s.Topology()
	return s.listTable(&Table{
		ID:     "fig6",
		Title:  "Throughput of a simple transaction with varying partitioning and placement strategies",
		Header: []string{"strategy", "throughput", "vs centralized"},
	}, wl, top, []column{
		{label: "centralized", cfg: engine.Config{Design: engine.Centralized}},
		{label: "plp", cfg: engine.Config{Design: engine.PLP}},
		{label: "hw-aware (naive per-core)", cfg: engine.Config{Design: engine.HWAware}},
		{label: "workload-aware (oblivious placement)", cfg: engine.Config{Design: engine.ATraPos, Placement: engine.DerivePlacement(wl, top, false)}},
		{label: "atrapos (workload+hardware aware)", cfg: engine.Config{Design: engine.ATraPos, Placement: engine.DerivePlacement(wl, top, true)}},
	}, func(res, first *engine.Result) []string {
		rel := "1.00x"
		if first.ThroughputTPS > 0 {
			rel = fmtFactor(res.ThroughputTPS / first.ThroughputTPS)
		}
		return []string{tpsCell(res), rel}
	})
}

// Fig7 renders the TPC-C NewOrder transaction flow graph of Figure 7.
func Fig7(Scale) (*Table, error) {
	g := workload.NewOrderFlowGraph()
	t := &Table{
		ID:     "fig7",
		Title:  "Transaction flow graph for the TPC-C NewOrder transaction",
		Header: []string{"node", "operation", "multiplicity"},
	}
	for i, n := range g.Nodes {
		mult := "1"
		if n.MinCount != n.MaxCount {
			mult = fmt.Sprintf("%d-%d", n.MinCount, n.MaxCount)
		}
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%s(%s)", n.Op, n.Table), mult)
	}
	for i, sp := range g.Syncs {
		t.Notes = append(t.Notes, fmt.Sprintf("synchronization point %d joins nodes %v (%d bytes)", i+1, sp.Nodes, sp.Bytes))
	}
	return t, nil
}

// Fig8 reproduces Figure 8: the throughput of ATraPos normalized over PLP for
// individual TATP and TPC-C transactions and their standard mixes.
func Fig8(s Scale) (*Table, error) {
	top := s.Topology()
	tpcc := func(label string, mix map[string]float64) row {
		return row{lead: []string{"TPC-C", label}, top: top, wl: workload.MustTPCC(workload.TPCCOptions{
			Warehouses:           s.Warehouses,
			CustomersPerDistrict: s.CustomersPerDistrict,
			Items:                s.Items,
			Mix:                  mix,
		})}
	}
	rows := s.tatpRows("TATP")
	rows = append(rows,
		tpcc("StockLevel", map[string]float64{workload.TPCCStockLevel: 1}),
		tpcc("OrderStatus", map[string]float64{workload.TPCCOrderStatus: 1}),
		tpcc("TPCC-Mix", nil))
	return s.sweepTable(&Table{
		ID:     "fig8",
		Title:  "Normalized throughput of ATraPos over PLP (y = ATraPos/PLP)",
		Header: []string{"benchmark", "workload", "plp", "atrapos", "improvement"},
	}, rows, []column{
		{label: "plp", cfg: engine.Config{Design: engine.PLP}},
		{label: "atrapos", cfg: engine.Config{Design: engine.ATraPos}, place: true},
	}, func(r []*engine.Result) []string {
		plp, atr := r[0].ThroughputTPS, r[1].ThroughputTPS
		return []string{fmtTPS(plp), fmtTPS(atr), fmtFactor(ratio(atr, plp))}
	})
}

// tatpRows is the row axis Figure 8 and Table II share: three single-class
// TATP workloads and the standard mix on the scale's machine, each row led by
// the given cells and its workload label.
func (s Scale) tatpRows(lead ...string) []row {
	top := s.Topology()
	var rows []row
	for _, c := range []struct {
		label string
		mix   map[string]float64
	}{
		{"GetSubData", map[string]float64{workload.TATPGetSubData: 1}},
		{"GetNewDest", map[string]float64{workload.TATPGetNewDest: 1}},
		{"UpdSubData", map[string]float64{workload.TATPUpdSubData: 1}},
		{"TATP-Mix", nil},
	} {
		rows = append(rows, row{
			lead: append(append([]string(nil), lead...), c.label),
			wl:   workload.MustTATP(workload.TATPOptions{Subscribers: s.Subscribers, Mix: c.mix}),
			top:  top,
		})
	}
	return rows
}

// Table2 reproduces Table II: the throughput of TATP workloads with the
// ATraPos monitoring mechanism disabled and enabled, and the overhead in
// percent.
func Table2(s Scale) (*Table, error) {
	return s.sweepTable(&Table{
		ID:     "table2",
		Title:  "ATraPos monitoring overhead",
		Header: []string{"workload", "no monitoring (TPS)", "monitoring (TPS)", "overhead"},
		Notes:  []string{"The paper reports at most 3.32% overhead (GetSubData worst case)."},
	}, s.tatpRows(), []column{
		{label: "no monitoring", cfg: engine.Config{Design: engine.ATraPos}, place: true},
		{label: "monitoring", cfg: engine.Config{Design: engine.ATraPos, Monitoring: true}, place: true},
	}, func(r []*engine.Result) []string {
		off, on := r[0].ThroughputTPS, r[1].ThroughputTPS
		return []string{fmt.Sprintf("%.0f", off), fmt.Sprintf("%.0f", on), fmtPercent(ratio(off-on, off))}
	})
}

// Fig9 reproduces Figure 9: the cost of merge, split and rearrange
// repartitioning sequences as the number of repartitioning actions grows.
func Fig9(s Scale) (*Table, error) {
	top := s.Topology()
	domain := numa.MustNewDomain(top, numa.DefaultCostModel())
	t := &Table{
		ID:     "fig9",
		Title:  "Repartitioning cost (ms) vs number of repartitioning actions",
		Header: []string{"actions", "merge", "split", "rearrange"},
	}
	rows := s.MicroRows
	def := func() *schema.Table {
		cols := []schema.Column{{Name: "id", Type: schema.Int64}}
		for i := 0; i < 10; i++ {
			cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int64})
		}
		return &schema.Table{Name: "reparttbl", Columns: cols, PrimaryKey: []string{"id"}}
	}
	loadTable := func(parts int) (*storage.Manager, *storage.Table) {
		store := storage.NewManager(domain)
		tbl, err := store.CreateTable(def(), btree.UniformBounds(int64(rows), parts), nil)
		if err != nil {
			panic(err)
		}
		err = tbl.LoadFunc(rows, func(i int, w *schema.RowWriter) {
			w.Int(int64(i))
			for c := 1; c < 11; c++ {
				w.Int(int64(i * c))
			}
		})
		if err != nil {
			panic(err)
		}
		return store, tbl
	}
	maxActions := top.NumCores()
	for n := maxActions / 8; n <= maxActions; n += maxActions / 8 {
		if n < 1 {
			n = 1
		}
		// Merge: start with 2n partitions, merge n pairs.
		mergeCost := measureReplan(domain, loadTable, 2*n, n+1, rows)
		// Split: start with n+1 partitions, split each into two.
		splitCost := measureReplan(domain, loadTable, n+1, 2*n+1, rows)
		// Rearrange: change both boundaries and ownership (split+merge mix).
		rearrangeCost := measureReplan(domain, loadTable, 2*n, 2*n, rows) + mergeCost/2 + splitCost/2
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", mergeCost.Seconds()*1e3),
			fmt.Sprintf("%.1f", splitCost.Seconds()*1e3),
			fmt.Sprintf("%.1f", rearrangeCost.Seconds()*1e3))
	}
	t.Notes = append(t.Notes, "Costs are virtual time; the paper's costliest sequence (80 rearrangements) stays under 200 ms.")
	return t, nil
}

func measureReplan(domain *numa.Domain, load func(parts int) (*storage.Manager, *storage.Table), fromParts, toParts, rows int) vclock.Nanos {
	store, _ := load(fromParts)
	current := partition.NewPlacement()
	current.Tables["reparttbl"] = &partition.TablePlacement{
		Table:  "reparttbl",
		Bounds: btree.UniformBounds(int64(rows), fromParts),
		Cores:  coresFrom(domain, fromParts, 0),
	}
	desired := partition.NewPlacement()
	desired.Tables["reparttbl"] = &partition.TablePlacement{
		Table:  "reparttbl",
		Bounds: btree.UniformBounds(int64(rows), toParts),
		Cores:  coresFrom(domain, toParts, len(domain.Top.AliveCores())/2),
	}
	plan := core.BuildPlan(current, desired, domain.Top)
	exec := core.NewExecutor(core.DefaultExecutorConfig(), domain, store)
	out, err := exec.Execute(plan)
	if err != nil {
		return 0
	}
	return out.Cost
}

// coresFrom returns n owner cores, round-robin over the alive cores starting
// at the shift-th.
func coresFrom(domain *numa.Domain, n, shift int) []topology.CoreID {
	cores := domain.Top.AliveCores()
	out := make([]topology.CoreID, n)
	for i := range out {
		out[i] = cores[(i+shift)%len(cores)].ID
	}
	return out
}
