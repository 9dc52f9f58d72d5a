package workload

import (
	"fmt"
	"sync/atomic"

	"atrapos/internal/schema"
)

// TPC-C transaction class names.
const (
	TPCCNewOrder    = "NewOrder"
	TPCCPayment     = "Payment"
	TPCCOrderStatus = "OrderStatus"
	TPCCDelivery    = "Delivery"
	TPCCStockLevel  = "StockLevel"
)

// TPC-C sizing constants (per warehouse).
const (
	tpccDistrictsPerWarehouse = 10
	tpccCustomersPerDistrict  = 3000
	tpccItems                 = 100000
	tpccInitialOrdersPerDist  = 3000
	// tpccOrderRangePerDistrict is the surrogate-key range reserved for each
	// district's orders. New orders wrap around within their district's
	// range (overwriting the oldest ones), which keeps the key space dense so
	// range partitioning spreads both the initial and the newly inserted
	// orders evenly.
	tpccOrderRangePerDistrict = tpccInitialOrdersPerDist
)

// TPCCStandardMix returns the standard TPC-C transaction mix.
func TPCCStandardMix() map[string]float64 {
	return map[string]float64{
		TPCCNewOrder:    45,
		TPCCPayment:     43,
		TPCCOrderStatus: 4,
		TPCCDelivery:    4,
		TPCCStockLevel:  4,
	}
}

// TPCCOptions configures the TPC-C workload.
type TPCCOptions struct {
	// Warehouses is the scaling factor; the paper uses 80.
	Warehouses int
	// Mix gives the weight of each transaction class; nil means the standard mix.
	Mix map[string]float64
	// CustomersPerDistrict overrides the TPC-C population for faster tests;
	// zero keeps the standard 3000.
	CustomersPerDistrict int
	// Items overrides the item count; zero keeps the standard 100000.
	Items int
}

// TPCC builds the TPC-C wholesale-supplier benchmark: 9 tables and 5
// transaction classes, all of which touch 3 or more tables. Surrogate integer
// keys are derived from (warehouse, district, ...) so that range partitioning
// aligns the tables on warehouse boundaries.
func TPCC(opts TPCCOptions) (*Workload, error) {
	if opts.Warehouses <= 0 {
		return nil, fmt.Errorf("workload: TPC-C needs a positive warehouse count")
	}
	mix := opts.Mix
	if mix == nil {
		mix = TPCCStandardMix()
	}
	graphs := tpccGraphs()
	mixes, err := compilePhases([]Phase{{Duration: 1, Mix: mix}}, graphs)
	if err != nil {
		return nil, fmt.Errorf("workload: TPC-C: %w", err)
	}
	custPerDist := opts.CustomersPerDistrict
	if custPerDist <= 0 {
		custPerDist = tpccCustomersPerDistrict
	}
	items := opts.Items
	if items <= 0 {
		items = tpccItems
	}

	w := int64(opts.Warehouses)
	districts := w * tpccDistrictsPerWarehouse
	customers := districts * int64(custPerDist)
	stock := w * int64(items)
	// Order surrogate keys are strided per district so that orders inserted
	// at run time stay within their district's key range (and hence its
	// partitions), exactly as TPC-C's per-district order ids do.
	maxOrders := districts * tpccOrderRangePerDistrict
	orderKey := func(dist, seq int64) int64 { return dist*tpccOrderRangePerDistrict + seq }

	intCol := func(names ...string) []schema.Column {
		cols := make([]schema.Column, len(names))
		for i, n := range names {
			cols[i] = schema.Column{Name: n, Type: schema.Int64}
		}
		return cols
	}
	fk := func(col, refTable, refCol string) schema.ForeignKey {
		return schema.ForeignKey{Column: col, RefTable: refTable, RefColumn: refCol}
	}

	wl := &Workload{
		Name: "TPC-C",
		Tables: []TableDef{
			{
				Schema: &schema.Table{Name: "Warehouse", Columns: intCol("w_id", "w_tax", "w_ytd"), PrimaryKey: []string{"w_id"}},
				Rows:   int(w), MaxKey: w,
				RowGen: func(i int, w *schema.RowWriter) { w.Ints(int64(i), 7, 0) },
			},
			{
				Schema: &schema.Table{
					Name: "District", Columns: intCol("d_id", "d_w_id", "d_tax", "d_next_o_id", "d_ytd"),
					PrimaryKey:  []string{"d_id"},
					ForeignKeys: []schema.ForeignKey{fk("d_w_id", "Warehouse", "w_id")},
				},
				Rows: int(districts), MaxKey: districts,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Ints(int64(i), int64(i/tpccDistrictsPerWarehouse), 5, tpccInitialOrdersPerDist, 0)
				},
			},
			{
				Schema: &schema.Table{
					Name: "Customer", Columns: intCol("c_id", "c_d_id", "c_w_id", "c_balance", "c_ytd_payment", "c_payment_cnt"),
					PrimaryKey:  []string{"c_id"},
					ForeignKeys: []schema.ForeignKey{fk("c_d_id", "District", "d_id")},
				},
				Rows: int(customers), MaxKey: customers,
				RowGen: func(i int, w *schema.RowWriter) {
					d := int64(i) / int64(custPerDist)
					w.Ints(int64(i), d, d/tpccDistrictsPerWarehouse, -10, 10, 1)
				},
			},
			{
				Schema: &schema.Table{
					Name: "History", Columns: intCol("h_id", "h_c_id", "h_d_id", "h_amount"),
					PrimaryKey:  []string{"h_id"},
					ForeignKeys: []schema.ForeignKey{fk("h_c_id", "Customer", "c_id")},
				},
				Rows: int(customers), MaxKey: customers * 4,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Ints(int64(i), int64(i), int64(i)/int64(custPerDist), 10)
				},
			},
			{
				Schema: &schema.Table{
					Name: "NewOrder", Columns: intCol("no_o_id", "no_d_id", "no_w_id"),
					PrimaryKey:  []string{"no_o_id"},
					ForeignKeys: []schema.ForeignKey{fk("no_d_id", "District", "d_id")},
				},
				Rows: int(districts) * 900, MaxKey: maxOrders,
				RowGen: func(i int, w *schema.RowWriter) {
					d := int64(i) / 900
					o := orderKey(d, int64(tpccInitialOrdersPerDist)-900+int64(i)%900)
					w.Ints(o, d, d/tpccDistrictsPerWarehouse)
				},
			},
			{
				Schema: &schema.Table{
					Name: "Order", Columns: intCol("o_id", "o_d_id", "o_w_id", "o_c_id", "o_ol_cnt"),
					PrimaryKey:  []string{"o_id"},
					ForeignKeys: []schema.ForeignKey{fk("o_d_id", "District", "d_id"), fk("o_c_id", "Customer", "c_id")},
				},
				Rows: int(districts) * tpccInitialOrdersPerDist, MaxKey: maxOrders,
				RowGen: func(i int, w *schema.RowWriter) {
					d := int64(i) / tpccInitialOrdersPerDist
					o := orderKey(d, int64(i)%tpccInitialOrdersPerDist)
					w.Ints(o, d, d/tpccDistrictsPerWarehouse, d*int64(custPerDist)+int64(i)%int64(custPerDist), 10)
				},
			},
			{
				Schema: &schema.Table{
					Name: "OrderLine", Columns: intCol("ol_id", "ol_o_id", "ol_d_id", "ol_i_id", "ol_amount"),
					PrimaryKey:  []string{"ol_id"},
					ForeignKeys: []schema.ForeignKey{fk("ol_o_id", "Order", "o_id"), fk("ol_i_id", "Item", "i_id")},
				},
				Rows: int(districts) * tpccInitialOrdersPerDist * 10, MaxKey: maxOrders * 15,
				RowGen: func(i int, w *schema.RowWriter) {
					d := int64(i) / (tpccInitialOrdersPerDist * 10)
					o := orderKey(d, (int64(i)/10)%tpccInitialOrdersPerDist)
					w.Ints(o*15+int64(i)%10, o, d, int64(i)%int64(items), 42)
				},
			},
			{
				Schema: &schema.Table{Name: "Item", Columns: intCol("i_id", "i_price", "i_im_id"), PrimaryKey: []string{"i_id"}},
				Rows:   items, MaxKey: int64(items),
				RowGen: func(i int, w *schema.RowWriter) { w.Ints(int64(i), int64(i%100+1), int64(i%10000)) },
			},
			{
				Schema: &schema.Table{
					Name: "Stock", Columns: intCol("s_id", "s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt"),
					PrimaryKey:  []string{"s_id"},
					ForeignKeys: []schema.ForeignKey{fk("s_w_id", "Warehouse", "w_id"), fk("s_i_id", "Item", "i_id")},
				},
				Rows: int(stock), MaxKey: stock,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Ints(int64(i), int64(i)/int64(items), int64(i)%int64(items), 50, 0, 0)
				},
			},
		},
		Graphs:       graphs,
		ClassWeights: mixes.weights,
	}

	// One order-id sequence per district, as in TPC-C's d_next_o_id.
	orderSeqs := make([]atomic.Int64, districts)
	for d := range orderSeqs {
		orderSeqs[d].Store(tpccInitialOrdersPerDist)
	}
	nextOrder := func(dist int64) int64 {
		seq := orderSeqs[dist].Add(1) % tpccOrderRangePerDistrict
		return orderKey(dist, seq)
	}

	wl.Generate = func(ctx *GenContext) *Transaction {
		class := mixes.pick(ctx.Rng, ctx.At)
		wh := ctx.Rng.Int63n(w)
		dist := wh*tpccDistrictsPerWarehouse + ctx.Rng.Int63n(tpccDistrictsPerWarehouse)
		cust := dist*int64(custPerDist) + ctx.Rng.Int63n(int64(custPerDist))
		t := ctx.Txn(class)
		switch class {
		case TPCCPayment:
			hID := cust*4 + ctx.Rng.Int63n(4)
			t.Add("Warehouse", Update, schema.KeyFromInt(wh))
			t.Add("District", Update, schema.KeyFromInt(dist))
			t.Add("Customer", Update, schema.KeyFromInt(cust))
			t.AddRow("History", Insert, schema.KeyFromInt(hID), schema.Row{hID, cust, dist, int64(10)})
			t.AddSync(16, 0, 1)
			t.AddSync(32, 2, 3)
			return t
		case TPCCOrderStatus:
			order := orderKey(dist, ctx.Rng.Int63n(int64(tpccInitialOrdersPerDist)))
			t.ReadOnly = true
			t.Add("Customer", Read, schema.KeyFromInt(cust))
			t.Add("Order", Read, schema.KeyFromInt(order))
			lines := 5 + ctx.Rng.Int63n(11)
			for l := int64(0); l < lines; l++ {
				t.Add("OrderLine", Read, schema.KeyFromInt(order*15+l%10))
			}
			t.AddSync(32, 0, 1)
			t.AddSyncRange(24*int(lines), 1, len(t.Actions))
			return t
		case TPCCDelivery:
			base := wh * tpccDistrictsPerWarehouse
			for d := int64(0); d < tpccDistrictsPerWarehouse; d++ {
				dst := base + d
				order := orderKey(dst, ctx.Rng.Int63n(int64(tpccInitialOrdersPerDist)))
				custD := dst*int64(custPerDist) + ctx.Rng.Int63n(int64(custPerDist))
				t.Add("NewOrder", Delete, schema.KeyFromInt(order))
				t.Add("Order", Update, schema.KeyFromInt(order))
				t.Add("OrderLine", Update, schema.KeyFromInt(order*15))
				t.Add("Customer", Update, schema.KeyFromInt(custD))
			}
			t.AddSyncRange(200, 0, len(t.Actions))
			return t
		case TPCCStockLevel:
			t.ReadOnly = true
			t.Add("District", Read, schema.KeyFromInt(dist))
			order := orderKey(dist, 20+ctx.Rng.Int63n(int64(tpccInitialOrdersPerDist)-20))
			for l := int64(0); l < 20; l++ {
				t.Add("OrderLine", Read, schema.KeyFromInt((order-l%20)*15+l%10))
			}
			for l := int64(0); l < 20; l++ {
				item := ctx.Rng.Int63n(int64(items))
				t.Add("Stock", Read, schema.KeyFromInt(wh*int64(items)+item))
			}
			t.AddSyncRange(160, 0, 21)
			t.AddSyncRange(160, 21, len(t.Actions))
			return t
		default: // NewOrder
			t.Reset(TPCCNewOrder)
			// Fixed part.
			t.Add("Warehouse", Read, schema.KeyFromInt(wh))
			t.Add("Customer", Read, schema.KeyFromInt(cust))
			t.Add("District", Read, schema.KeyFromInt(dist))
			t.Add("District", Update, schema.KeyFromInt(dist))
			fixedEnd := len(t.Actions)
			// Variable part: 5-15 items. The item and stock *read* indices
			// feed Figure 7's third synchronization point, so collect them in
			// the context's scratch (item reads first, then stock reads, as
			// the point was originally specified).
			lines := 5 + ctx.Rng.Int63n(11)
			oID := nextOrder(dist)
			ctx.idx = ctx.idx[:0]
			for l := int64(0); l < lines; l++ {
				item := ctx.Rng.Int63n(int64(items))
				ctx.idx = append(ctx.idx, len(t.Actions))
				t.Add("Item", Read, schema.KeyFromInt(item))
				stockKey := wh*int64(items) + item
				t.Add("Stock", Read, schema.KeyFromInt(stockKey))
				t.Add("Stock", Update, schema.KeyFromInt(stockKey))
			}
			itemCount := len(ctx.idx)
			for i := 0; i < itemCount; i++ {
				ctx.idx = append(ctx.idx, ctx.idx[i]+1) // the stock read follows its item read
			}
			insStart := len(t.Actions)
			t.AddRow("Order", Insert, schema.KeyFromInt(oID), schema.Row{oID, dist, wh, cust, lines})
			t.AddRow("NewOrder", Insert, schema.KeyFromInt(oID), schema.Row{oID, dist, wh})
			for l := int64(0); l < lines; l++ {
				olID := oID*15 + l
				t.AddRow("OrderLine", Insert, schema.KeyFromInt(olID), schema.Row{olID, oID, dist, ctx.Rng.Int63n(int64(items)), int64(42)})
			}
			// The four synchronization points of Figure 7.
			t.AddSyncRange(64, 0, fixedEnd)
			t.AddSync(48, 3, insStart, insStart+1)
			t.AddSync(24*int(lines), ctx.idx...)
			t.AddSyncRange(32*int(lines), insStart, len(t.Actions))
			return t
		}
	}
	return wl, nil
}

// MustTPCC is TPCC but panics on configuration errors.
func MustTPCC(opts TPCCOptions) *Workload {
	w, err := TPCC(opts)
	if err != nil {
		panic(err)
	}
	return w
}

func tpccGraphs() map[string]*FlowGraph {
	return map[string]*FlowGraph{
		TPCCNewOrder: {
			Class: TPCCNewOrder,
			Nodes: []FlowNode{
				{Table: "Warehouse", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "Customer", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "District", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "District", Op: Update, MinCount: 1, MaxCount: 1},
				{Table: "Item", Op: Read, MinCount: 5, MaxCount: 15},
				{Table: "Stock", Op: Read, MinCount: 5, MaxCount: 15},
				{Table: "Stock", Op: Update, MinCount: 5, MaxCount: 15},
				{Table: "Order", Op: Insert, MinCount: 1, MaxCount: 1},
				{Table: "NewOrder", Op: Insert, MinCount: 1, MaxCount: 1},
				{Table: "OrderLine", Op: Insert, MinCount: 5, MaxCount: 15},
			},
			Syncs: []FlowSync{
				{Nodes: []int{0, 1, 2, 3}, Bytes: 64},
				{Nodes: []int{3, 7, 8}, Bytes: 48},
				{Nodes: []int{4, 5, 6}, Bytes: 240},
				{Nodes: []int{7, 8, 9}, Bytes: 320},
			},
		},
		TPCCPayment: {
			Class: TPCCPayment,
			Nodes: []FlowNode{
				{Table: "Warehouse", Op: Update, MinCount: 1, MaxCount: 1},
				{Table: "District", Op: Update, MinCount: 1, MaxCount: 1},
				{Table: "Customer", Op: Update, MinCount: 1, MaxCount: 1},
				{Table: "History", Op: Insert, MinCount: 1, MaxCount: 1},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 16}, {Nodes: []int{2, 3}, Bytes: 32}},
		},
		TPCCOrderStatus: {
			Class: TPCCOrderStatus,
			Nodes: []FlowNode{
				{Table: "Customer", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "Order", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "OrderLine", Op: Read, MinCount: 5, MaxCount: 15},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 32}, {Nodes: []int{1, 2}, Bytes: 240}},
		},
		TPCCDelivery: {
			Class: TPCCDelivery,
			Nodes: []FlowNode{
				{Table: "NewOrder", Op: Delete, MinCount: 10, MaxCount: 10},
				{Table: "Order", Op: Update, MinCount: 10, MaxCount: 10},
				{Table: "OrderLine", Op: Update, MinCount: 10, MaxCount: 10},
				{Table: "Customer", Op: Update, MinCount: 10, MaxCount: 10},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1, 2, 3}, Bytes: 200}},
		},
		TPCCStockLevel: {
			Class: TPCCStockLevel,
			Nodes: []FlowNode{
				{Table: "District", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "OrderLine", Op: Read, MinCount: 20, MaxCount: 20},
				{Table: "Stock", Op: Read, MinCount: 20, MaxCount: 20},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 160}, {Nodes: []int{1, 2}, Bytes: 160}},
		},
	}
}

// NewOrderFlowGraph returns the TPC-C NewOrder flow graph of the paper's
// Figure 7, for display by examples and the harness.
func NewOrderFlowGraph() *FlowGraph {
	return tpccGraphs()[TPCCNewOrder]
}
