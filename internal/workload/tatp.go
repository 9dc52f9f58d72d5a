package workload

import (
	"fmt"
	"strconv"

	"atrapos/internal/schema"
)

// TATP transaction class names.
const (
	TATPGetSubData  = "GetSubData"
	TATPGetNewDest  = "GetNewDest"
	TATPGetAccData  = "GetAccData"
	TATPUpdSubData  = "UpdSubData"
	TATPUpdLocation = "UpdLocation"
	TATPInsCallFwd  = "InsCallFwd"
	TATPDelCallFwd  = "DelCallFwd"
)

// TATPStandardMix returns the standard TATP transaction mix.
func TATPStandardMix() map[string]float64 {
	return map[string]float64{
		TATPGetSubData:  35,
		TATPGetNewDest:  10,
		TATPGetAccData:  35,
		TATPUpdSubData:  2,
		TATPUpdLocation: 14,
		TATPInsCallFwd:  2,
		TATPDelCallFwd:  2,
	}
}

// TATPOptions configures the TATP workload.
type TATPOptions struct {
	// Subscribers is the number of rows in the Subscriber table; the paper
	// uses 800,000.
	Subscribers int
	// Mix gives the weight of each transaction class. Nil means the standard
	// TATP mix. A single-entry map runs only that class, as the paper does
	// for the per-transaction results of Figure 8.
	Mix map[string]float64
	// Phases, when set, makes the mix change over virtual time and overrides
	// Mix: each phase's mix is in force for its Duration, in order, and the
	// list repeats after the last phase (Figures 10 and 13). Every phase's
	// mix is checked and compiled when the workload is built.
	Phases []Phase
	// Skew optionally skews the subscriber id distribution (Figure 11).
	Skew Skew
}

// TATP builds the TATP telecom benchmark: 4 tables perfectly partitionable on
// the subscriber id, 7 transaction classes in 3 groups (single-table
// read-only, multi-table read-only, update).
//
// Secondary tables use integer surrogate keys derived from the subscriber id
// (AccessInfo and SpecialFacility: s_id*4 + type; CallForwarding:
// s_id*96 + sf_type*24 + start_hour) so that range partitioning by key aligns
// all four tables on subscriber boundaries.
func TATP(opts TATPOptions) (*Workload, error) {
	if opts.Subscribers <= 0 {
		return nil, fmt.Errorf("workload: TATP needs a positive subscriber count")
	}
	subs := int64(opts.Subscribers)
	list := opts.Phases
	if list == nil {
		mix := opts.Mix
		if mix == nil {
			mix = TATPStandardMix()
		}
		list = []Phase{{Duration: 1, Mix: mix}}
	}
	graphs := tatpGraphs()
	mixes, err := compilePhases(list, graphs)
	if err != nil {
		return nil, fmt.Errorf("workload: TATP: %w", err)
	}

	w := &Workload{
		Name: "TATP",
		Tables: []TableDef{
			{
				Schema: &schema.Table{
					Name: "Subscriber",
					Columns: []schema.Column{
						{Name: "s_id", Type: schema.Int64},
						{Name: "sub_nbr", Type: schema.String},
						{Name: "bit_1", Type: schema.Int64},
						{Name: "msc_location", Type: schema.Int64},
						{Name: "vlr_location", Type: schema.Int64},
					},
					PrimaryKey: []string{"s_id"},
				},
				Rows:   opts.Subscribers,
				MaxKey: subs,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Int(int64(i))
					zeroPad15(w, i)
					w.Ints(int64(i%2), int64(i*7%1000), int64(i*13%1000))
				},
			},
			{
				Schema: &schema.Table{
					Name: "AccessInfo",
					Columns: []schema.Column{
						{Name: "ai_id", Type: schema.Int64},
						{Name: "s_id", Type: schema.Int64},
						{Name: "ai_type", Type: schema.Int64},
						{Name: "data1", Type: schema.Int64},
					},
					PrimaryKey:  []string{"ai_id"},
					ForeignKeys: []schema.ForeignKey{{Column: "s_id", RefTable: "Subscriber", RefColumn: "s_id"}},
				},
				Rows:   opts.Subscribers * 4,
				MaxKey: subs * 4,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Ints(int64(i), int64(i/4), int64(i%4+1), int64(i%256))
				},
			},
			{
				Schema: &schema.Table{
					Name: "SpecialFacility",
					Columns: []schema.Column{
						{Name: "sf_id", Type: schema.Int64},
						{Name: "s_id", Type: schema.Int64},
						{Name: "sf_type", Type: schema.Int64},
						{Name: "is_active", Type: schema.Int64},
					},
					PrimaryKey:  []string{"sf_id"},
					ForeignKeys: []schema.ForeignKey{{Column: "s_id", RefTable: "Subscriber", RefColumn: "s_id"}},
				},
				Rows:   opts.Subscribers * 4,
				MaxKey: subs * 4,
				RowGen: func(i int, w *schema.RowWriter) {
					w.Ints(int64(i), int64(i/4), int64(i%4+1), 1)
				},
			},
			{
				Schema: &schema.Table{
					Name: "CallForwarding",
					Columns: []schema.Column{
						{Name: "cf_id", Type: schema.Int64},
						{Name: "s_id", Type: schema.Int64},
						{Name: "sf_type", Type: schema.Int64},
						{Name: "start_hour", Type: schema.Int64},
						{Name: "number_x", Type: schema.String},
					},
					PrimaryKey:  []string{"cf_id"},
					ForeignKeys: []schema.ForeignKey{{Column: "s_id", RefTable: "SpecialFacility", RefColumn: "sf_id"}},
				},
				Rows:   opts.Subscribers * 4, // ~1 forwarding record per facility on average
				MaxKey: subs * 96,
				RowGen: func(i int, w *schema.RowWriter) {
					sID := int64(i / 4)
					sfType := int64(i%4 + 1)
					startHour := int64((i * 8) % 24)
					cfID := sID*96 + (sfType-1)*24 + startHour
					w.Ints(cfID, sID, sfType, startHour)
					zeroPad15(w, i)
				},
			},
		},
		Graphs:       graphs,
		ClassWeights: mixes.weights,
	}

	skew := opts.Skew
	w.Generate = func(ctx *GenContext) *Transaction {
		class := mixes.pick(ctx.Rng, ctx.At)
		sID := skew.Pick(ctx.Rng, subs, ctx.At)
		subKey := schema.KeyFromInt(sID)
		aiKey := schema.KeyFromInt(sID*4 + ctx.Rng.Int63n(4))
		sfType := ctx.Rng.Int63n(4)
		sfKey := schema.KeyFromInt(sID*4 + sfType)
		startHour := ctx.Rng.Int63n(3) * 8
		cfKey := schema.KeyFromInt(sID*96 + sfType*24 + startHour)

		t := ctx.Txn(class)
		switch class {
		case TATPGetSubData:
			t.ReadOnly = true
			t.Add("Subscriber", Read, subKey)
		case TATPGetAccData:
			t.ReadOnly = true
			t.Add("AccessInfo", Read, aiKey)
		case TATPGetNewDest:
			t.ReadOnly = true
			t.Add("SpecialFacility", Read, sfKey)
			t.Add("CallForwarding", Read, cfKey)
			t.AddSync(48, 0, 1)
		case TATPUpdSubData:
			t.Add("Subscriber", Update, subKey)
			t.Add("SpecialFacility", Update, sfKey)
			t.AddSync(16, 0, 1)
		case TATPUpdLocation:
			t.Add("Subscriber", Update, subKey)
		case TATPInsCallFwd:
			// Inserted rows are retained by the storage layer, so this is the
			// one TATP class whose generation genuinely allocates.
			row := schema.Row{cfKey.Int(), sID, sfType, startHour, "forward"}
			t.Add("Subscriber", Read, subKey)
			t.Add("SpecialFacility", Read, sfKey)
			t.AddRow("CallForwarding", Insert, cfKey, row)
			t.AddSync(64, 0, 1, 2)
		case TATPDelCallFwd:
			t.Add("Subscriber", Read, subKey)
			t.Add("CallForwarding", Delete, cfKey)
			t.AddSync(16, 0, 1)
		default:
			// Unknown or empty mix: fall back to the cheapest read-only class.
			t.Reset(TATPGetSubData)
			t.ReadOnly = true
			t.Add("Subscriber", Read, subKey)
		}
		return t
	}
	return w, nil
}

// zeroPad15 writes fmt.Sprintf("%015d", i) for every i >= 0 as the next
// column, formatted in a stack buffer without fmt's reflection or a string
// allocation: the loader calls it for every Subscriber and CallForwarding row.
func zeroPad15(w *schema.RowWriter, i int) {
	var buf [19]byte // math.MaxInt has 19 digits
	b := strconv.AppendInt(buf[:0], int64(i), 10)
	if pad := 15 - len(b); pad > 0 {
		copy(buf[pad:], b)
		copy(buf[:pad], "000000000000000")
		b = buf[:15]
	}
	w.StrBytes(b)
}

// MustTATP is TATP but panics on configuration errors; intended for benches
// and examples with known-good options.
func MustTATP(opts TATPOptions) *Workload {
	w, err := TATP(opts)
	if err != nil {
		panic(err)
	}
	return w
}

func tatpGraphs() map[string]*FlowGraph {
	return map[string]*FlowGraph{
		TATPGetSubData: {
			Class: TATPGetSubData,
			Nodes: []FlowNode{{Table: "Subscriber", Op: Read, MinCount: 1, MaxCount: 1}},
		},
		TATPGetAccData: {
			Class: TATPGetAccData,
			Nodes: []FlowNode{{Table: "AccessInfo", Op: Read, MinCount: 1, MaxCount: 1}},
		},
		TATPGetNewDest: {
			Class: TATPGetNewDest,
			Nodes: []FlowNode{
				{Table: "SpecialFacility", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "CallForwarding", Op: Read, MinCount: 1, MaxCount: 3},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 48}},
		},
		TATPUpdSubData: {
			Class: TATPUpdSubData,
			Nodes: []FlowNode{
				{Table: "Subscriber", Op: Update, MinCount: 1, MaxCount: 1},
				{Table: "SpecialFacility", Op: Update, MinCount: 1, MaxCount: 1},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 16}},
		},
		TATPUpdLocation: {
			Class: TATPUpdLocation,
			Nodes: []FlowNode{{Table: "Subscriber", Op: Update, MinCount: 1, MaxCount: 1}},
		},
		TATPInsCallFwd: {
			Class: TATPInsCallFwd,
			Nodes: []FlowNode{
				{Table: "Subscriber", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "SpecialFacility", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "CallForwarding", Op: Insert, MinCount: 1, MaxCount: 1},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1, 2}, Bytes: 64}},
		},
		TATPDelCallFwd: {
			Class: TATPDelCallFwd,
			Nodes: []FlowNode{
				{Table: "Subscriber", Op: Read, MinCount: 1, MaxCount: 1},
				{Table: "CallForwarding", Op: Delete, MinCount: 1, MaxCount: 1},
			},
			Syncs: []FlowSync{{Nodes: []int{0, 1}, Bytes: 16}},
		},
	}
}
