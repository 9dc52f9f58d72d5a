package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

func ctx(seed int64) *GenContext {
	return &GenContext{Rng: rand.New(rand.NewSource(seed)), NumSites: 1}
}

func TestOpTypeString(t *testing.T) {
	for _, o := range []OpType{Read, Update, Insert, Delete, OpType(9)} {
		if o.String() == "" {
			t.Errorf("op %d has empty string", o)
		}
	}
	if Read.IsWrite() || !Update.IsWrite() || !Insert.IsWrite() || !Delete.IsWrite() {
		t.Error("IsWrite misclassifies operations")
	}
}

func TestPickWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := map[string]float64{"a": 1, "b": 3, "zero": 0}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pickWeighted(rng, weights)]++
	}
	if counts["zero"] != 0 {
		t.Error("zero-weight class was picked")
	}
	if counts["b"] <= counts["a"] {
		t.Errorf("weights not respected: %v", counts)
	}
	if pickWeighted(rng, map[string]float64{}) != "" {
		t.Error("empty weights should return empty string")
	}
	if pickWeighted(rng, map[string]float64{"x": 0}) != "" {
		t.Error("all-zero weights should return empty string")
	}
}

func TestSkew(t *testing.T) {
	none := Skew{}
	if none.Active(0) {
		t.Error("zero skew should be inactive")
	}
	s := Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: Seconds(20)}
	if s.Active(Seconds(10)) {
		t.Error("skew should not be active before its start time")
	}
	if !s.Active(Seconds(25)) {
		t.Error("skew should be active after its start time")
	}
	rng := rand.New(rand.NewSource(2))
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Pick(rng, 1000, Seconds(25)) < 200 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("hot fraction = %.3f, want ~0.5", frac)
	}
	// Uniform before the start time.
	hot = 0
	for i := 0; i < n; i++ {
		if s.Pick(rng, 1000, Seconds(5)) < 200 {
			hot++
		}
	}
	frac = float64(hot) / n
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("pre-skew hot fraction = %.3f, want ~0.2", frac)
	}
	if s.Pick(rng, 0, 0) != 0 {
		t.Error("non-positive key space should return 0")
	}
	always := Skew{HotDataFraction: 1, HotAccessFraction: 1}
	if k := always.Pick(rng, 10, 0); k < 0 || k >= 10 {
		t.Errorf("degenerate skew picked %d", k)
	}
}

func TestSkewPickInRangeProperty(t *testing.T) {
	prop := func(seed int64, maxRaw uint16) bool {
		max := int64(maxRaw%1000) + 1
		s := Skew{HotDataFraction: 0.2, HotAccessFraction: 0.8}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			k := s.Pick(rng, max, 0)
			if k < 0 || k >= max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSingleRowRead(t *testing.T) {
	w := SingleRowRead(1000)
	if len(w.Tables) != 1 || w.Tables[0].Rows != 1000 {
		t.Fatalf("unexpected tables: %+v", w.Tables)
	}
	if len(w.TableSpecs()) != 1 || w.TableSpecs()[0].MaxKey != 1000 {
		t.Errorf("TableSpecs = %v", w.TableSpecs())
	}
	tx := w.Generate(ctx(1))
	if !tx.ReadOnly || len(tx.Actions) != 1 || tx.Actions[0].Op != Read {
		t.Errorf("unexpected transaction %+v", tx)
	}
	if len(tx.Tables()) != 1 {
		t.Errorf("Tables() = %v", tx.Tables())
	}
	if _, ok := w.Graph("ReadOne"); !ok {
		t.Error("missing flow graph")
	}
	if _, ok := w.Graph("nope"); ok {
		t.Error("unexpected flow graph")
	}
	if _, ok := w.TableDef("mbr"); !ok {
		t.Error("missing table def")
	}
	if _, ok := w.TableDef("nope"); ok {
		t.Error("unexpected table def")
	}
	if len(w.Graphs) != 1 {
		t.Errorf("Graphs = %v", w.Graphs)
	}
	if w.ClassWeights(0)["ReadOne"] != 1 {
		t.Error("class weights should be 1 for the only class")
	}
	// Row generator produces valid rows for the schema.
	row := genRow(t, w.Tables[0], 5)
	if len(row) != len(w.Tables[0].Schema.Columns) {
		t.Errorf("row has %d values for %d columns", len(row), len(w.Tables[0].Schema.Columns))
	}
}

func TestReadHundred(t *testing.T) {
	w := ReadHundred(10000)
	tx := w.Generate(ctx(3))
	if len(tx.Actions) != 100 || !tx.ReadOnly {
		t.Errorf("Read100 generated %d actions", len(tx.Actions))
	}
}

func TestMultisiteUpdate(t *testing.T) {
	w := MultisiteUpdate(8000, 50)
	local, multi := 0, 0
	gen := &GenContext{Rng: rand.New(rand.NewSource(4)), HomeSite: 2, NumSites: 8}
	for i := 0; i < 2000; i++ {
		tx := w.Generate(gen)
		if len(tx.Actions) != 10 {
			t.Fatalf("transaction has %d actions, want 10", len(tx.Actions))
		}
		if tx.MultiSite {
			multi++
			if len(tx.SyncPoints) != 1 {
				t.Error("multi-site transaction should have a sync point")
			}
		} else {
			local++
			// Local transactions only touch the home site's key range.
			for _, a := range tx.Actions {
				id := a.Key.Int()
				if id < 2000 || id >= 3000 {
					t.Fatalf("local transaction touched key %d outside home range [2000,3000)", id)
				}
			}
		}
	}
	if multi < 800 || multi > 1200 {
		t.Errorf("multi-site fraction off: %d of 2000", multi)
	}
	// Percentage clamping and single-site degenerate case.
	w0 := MultisiteUpdate(100, -5)
	if tx := w0.Generate(ctx(1)); tx.MultiSite {
		t.Error("0%% multi-site should never generate multi-site transactions")
	}
	w100 := MultisiteUpdate(100, 300)
	if tx := w100.Generate(ctx(1)); !tx.MultiSite {
		t.Error("100%% multi-site should always generate multi-site transactions")
	}
	if got := w.ClassWeights(0)["UpdateMultiSite"]; got != 50 {
		t.Errorf("class weight = %f", got)
	}
}

// TestSiteKeyRangeMemo checks the context's memoized range against
// siteKeyRange for every site, out-of-range ones included, at 1 to 80 sites,
// on row counts that do and do not divide: each lookup follows one with a
// different argument, so both the refresh and the hit are compared.
func TestSiteKeyRangeMemo(t *testing.T) {
	gen := &GenContext{}
	if lo, hi := gen.siteKeyRange(0); lo != 0 || hi != 0 {
		t.Fatalf("zero context: range [%d,%d), want [0,0)", lo, hi)
	}
	for _, maxKey := range []int64{0, 1, 79, 8000, 1_000_003} {
		for n := 1; n <= 80; n++ {
			gen.NumSites = n
			for site := -1; site <= n; site++ {
				gen.HomeSite = site
				wantLo, wantHi := siteKeyRange(maxKey, site, n)
				for pass := 0; pass < 2; pass++ {
					if lo, hi := gen.siteKeyRange(maxKey); lo != wantLo || hi != wantHi {
						t.Fatalf("maxKey %d site %d of %d pass %d: memo [%d,%d), want [%d,%d)",
							maxKey, site, n, pass, lo, hi, wantLo, wantHi)
					}
				}
				// A lookup on another table size in between must not leave
				// a stale entry behind.
				gen.siteKeyRange(maxKey + 1)
			}
		}
	}
}

func TestTwoTableSimple(t *testing.T) {
	w := TwoTableSimple(500)
	tx := w.Generate(ctx(5))
	if len(tx.Actions) != 2 || tx.Actions[0].Table != "A" || tx.Actions[1].Table != "B" {
		t.Errorf("unexpected actions %+v", tx.Actions)
	}
	if tx.Actions[0].Key != tx.Actions[1].Key {
		t.Error("A and B should be probed with the same id")
	}
	if len(tx.SyncPoints) != 1 || len(tx.SyncPoints[0].Actions) != 2 {
		t.Error("missing sync point")
	}
}

func TestTATPValidation(t *testing.T) {
	if _, err := TATP(TATPOptions{Subscribers: 0}); err == nil {
		t.Error("zero subscribers should fail")
	}
	if _, err := TATP(TATPOptions{Subscribers: 100, Mix: map[string]float64{"Nope": 1}}); err == nil {
		t.Error("unknown class should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTATP should panic on bad options")
		}
	}()
	MustTATP(TATPOptions{})
}

func TestTATPGeneratesAllClasses(t *testing.T) {
	w := MustTATP(TATPOptions{Subscribers: 1000})
	if len(w.Tables) != 4 {
		t.Fatalf("TATP has %d tables", len(w.Tables))
	}
	if len(w.Graphs) != 7 {
		t.Errorf("TATP has %d classes", len(w.Graphs))
	}
	gen := ctx(7)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		tx := w.Generate(gen)
		seen[tx.Class]++
		if len(tx.Actions) == 0 {
			t.Fatal("empty transaction")
		}
		for _, a := range tx.Actions {
			if a.Key.Int() < 0 {
				t.Fatalf("negative key in %s", tx.Class)
			}
		}
		g, ok := w.Graph(tx.Class)
		if !ok {
			t.Fatalf("class %s has no flow graph", tx.Class)
		}
		if len(g.Nodes) == 0 {
			t.Fatal("empty flow graph")
		}
	}
	for _, class := range []string{TATPGetSubData, TATPGetNewDest, TATPGetAccData, TATPUpdSubData, TATPUpdLocation} {
		if seen[class] == 0 {
			t.Errorf("class %s never generated", class)
		}
	}
	// GetSubData and GetAccData dominate the standard mix.
	if seen[TATPGetSubData] < seen[TATPUpdSubData] {
		t.Error("mix weights not respected")
	}
	// Single-class mix generates only that class.
	w2 := MustTATP(TATPOptions{Subscribers: 100, Mix: map[string]float64{TATPGetNewDest: 1}})
	for i := 0; i < 50; i++ {
		if tx := w2.Generate(gen); tx.Class != TATPGetNewDest {
			t.Fatalf("unexpected class %s", tx.Class)
		}
	}
	// Row generators are schema-compatible.
	for _, td := range w.Tables {
		row := genRow(t, td, 3)
		if len(row) != len(td.Schema.Columns) {
			t.Errorf("table %s: row has %d values for %d columns", td.Schema.Name, len(row), len(td.Schema.Columns))
		}
	}
}

func TestTATPRowGeneratorsAlignWithSubscriber(t *testing.T) {
	w := MustTATP(TATPOptions{Subscribers: 100})
	ai, _ := w.TableDef("AccessInfo")
	row := genRow(t, ai, 41)
	if row[0].(int64) != 41 || row[1].(int64) != 10 {
		t.Errorf("AccessInfo row 41 = %v", row)
	}
	cf, _ := w.TableDef("CallForwarding")
	row = genRow(t, cf, 10)
	// i=10: s_id=2, sf_type=3, start=(80)%24=8 -> cf_id=2*96+2*24+8=248.
	if row[0].(int64) != 248 {
		t.Errorf("CallForwarding surrogate key = %v", row[0])
	}
}

// TestZeroPad15MatchesSprintf: the TATP loader's padding helper is
// fmt.Sprintf("%015d") for every non-negative int, below, at and past 15
// digits.
func TestZeroPad15MatchesSprintf(t *testing.T) {
	l := (&schema.Table{Name: "pad", Columns: []schema.Column{{Name: "s", Type: schema.String}}}).Layout()
	w := l.Writer()
	for _, i := range []int{0, 9, 10, 99_999, 1e14, 1e15 - 1, 1e15, math.MaxInt} {
		w.Reset()
		zeroPad15(w, i)
		b, _, err := w.Row()
		if got, _ := l.Str(b, 0); err != nil || got != fmt.Sprintf("%015d", i) {
			t.Errorf("zeroPad15(%d) wrote %q (%v), want %q", i, got, err, fmt.Sprintf("%015d", i))
		}
	}
}

// TestActionRowsFitTheirTables: every row a generated transaction carries
// encodes into its table's flat layout, as the engine encodes it to store it.
func TestActionRowsFitTheirTables(t *testing.T) {
	for _, w := range []*Workload{
		MustTATP(TATPOptions{Subscribers: 500}),
		MustTPCC(TPCCOptions{Warehouses: 2, CustomersPerDistrict: 30, Items: 1000}),
	} {
		layouts := make(map[string]*schema.Layout)
		for _, td := range w.Tables {
			layouts[td.Schema.Name] = td.Schema.Layout()
		}
		c := ctx(7)
		rows := 0
		for range 5000 {
			for _, a := range w.Generate(c).Actions {
				if a.Row == nil {
					continue
				}
				rows++
				if _, err := layouts[a.Table].Encode(a.Row); err != nil {
					t.Fatalf("%s: %v row %v: %v", w.Name, a.Op, a.Row, err)
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s generated no action rows", w.Name)
		}
	}
}

// genRow is row i of td's generator, written through its layout's writer
// (which rejects a value that does not fit its column) and decoded.
func genRow(t *testing.T, td TableDef, i int) schema.Row {
	t.Helper()
	l := td.Schema.Layout()
	w := l.Writer()
	td.RowGen(i, w)
	b, _, err := w.Row()
	if err != nil {
		t.Fatalf("%s row %d: %v", td.Schema.Name, i, err)
	}
	return l.Decode(b)
}

// rowGenWorkloads are small instances of every workload whose tables have row
// generators: TATP, TPC-C, YCSB, zipf-hotkey and the two micro-benchmarks.
func rowGenWorkloads() []*Workload {
	return []*Workload{
		MustTATP(TATPOptions{Subscribers: 500}),
		MustTPCC(TPCCOptions{Warehouses: 2, CustomersPerDistrict: 30, Items: 1000}),
		YCSB(500, YCSBB),
		ZipfHotkey(500, 10, 30),
		MultisiteUpdate(500, 20),
		TwoTableSimple(500),
	}
}

// TestRowGeneratorsAscend: the bulk load takes every table's rows in strictly
// ascending key order, so every workload's generators must emit them so.
func TestRowGeneratorsAscend(t *testing.T) {
	for _, w := range rowGenWorkloads() {
		for _, td := range w.Tables {
			if td.RowGen == nil {
				continue
			}
			l := td.Schema.Layout()
			rw := l.Writer()
			var prev schema.Key
			for i := 0; i < td.Rows; i++ {
				rw.Reset()
				td.RowGen(i, rw)
				_, _, err := rw.Row()
				var k schema.Key
				if err == nil {
					k, err = rw.Key()
				}
				if err != nil {
					t.Fatalf("%s.%s row %d: %v", w.Name, td.Schema.Name, i, err)
				}
				if i > 0 && k <= prev {
					t.Fatalf("%s.%s: row %d has key %d after %d", w.Name, td.Schema.Name, i, k, prev)
				}
				prev = k
			}
		}
	}
}

// TestRowGeneratorsSizeAgrees: for up to 4,000 rows of every table of every
// row generator, the size the RowWriter reports (what a bulk load folds into a
// table's average row bytes) equals Layout.Size of the row's bytes (what an
// insert folds), so a loaded row and an inserted one are priced alike.
func TestRowGeneratorsSizeAgrees(t *testing.T) {
	for _, w := range rowGenWorkloads() {
		for _, td := range w.Tables {
			if td.RowGen == nil {
				continue
			}
			l := td.Schema.Layout()
			rw := l.Writer()
			for i := 0; i < min(td.Rows, 4000); i++ {
				rw.Reset()
				td.RowGen(i, rw)
				row, size, err := rw.Row()
				if err != nil {
					t.Fatalf("%s.%s row %d: %v", w.Name, td.Schema.Name, i, err)
				}
				if got := l.Size(row); got != size {
					t.Fatalf("%s.%s row %d: Layout.Size reads %d B, the writer reported %d B", w.Name, td.Schema.Name, i, got, size)
				}
			}
		}
	}
}

func TestTPCCValidationAndGeneration(t *testing.T) {
	if _, err := TPCC(TPCCOptions{Warehouses: 0}); err == nil {
		t.Error("zero warehouses should fail")
	}
	if _, err := TPCC(TPCCOptions{Warehouses: 1, Mix: map[string]float64{"Nope": 1}}); err == nil {
		t.Error("unknown class should fail")
	}
	w := MustTPCC(TPCCOptions{Warehouses: 2, CustomersPerDistrict: 30, Items: 1000})
	if len(w.Tables) != 9 {
		t.Fatalf("TPC-C has %d tables, want 9", len(w.Tables))
	}
	if len(w.Graphs) != 5 {
		t.Errorf("TPC-C has %d classes", len(w.Graphs))
	}
	gen := ctx(11)
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		tx := w.Generate(gen)
		seen[tx.Class]++
		if len(tx.Actions) == 0 {
			t.Fatal("empty transaction")
		}
		// Every TPC-C transaction touches at least 3 tables except Payment
		// variants; all touch at least 2.
		if len(tx.Tables()) < 2 {
			t.Errorf("%s touches only %v", tx.Class, tx.Tables())
		}
		if len(tx.SyncPoints) == 0 {
			t.Errorf("%s has no sync points", tx.Class)
		}
	}
	for class := range TPCCStandardMix() {
		if seen[class] == 0 {
			t.Errorf("class %s never generated", class)
		}
	}
	// NewOrder structure: 5-15 order lines, 4 sync points.
	w2 := MustTPCC(TPCCOptions{Warehouses: 1, CustomersPerDistrict: 30, Items: 500, Mix: map[string]float64{TPCCNewOrder: 1}})
	for i := 0; i < 50; i++ {
		tx := w2.Generate(gen)
		if tx.Class != TPCCNewOrder {
			t.Fatal("mix ignored")
		}
		if len(tx.SyncPoints) != 4 {
			t.Errorf("NewOrder has %d sync points, want 4", len(tx.SyncPoints))
		}
		var orderLines int
		for _, a := range tx.Actions {
			if a.Table == "OrderLine" && a.Op == Insert {
				orderLines++
			}
		}
		if orderLines < 5 || orderLines > 15 {
			t.Errorf("NewOrder inserted %d order lines", orderLines)
		}
	}
	// Row generators are schema-compatible.
	for _, td := range w.Tables {
		row := genRow(t, td, 7)
		if len(row) != len(td.Schema.Columns) {
			t.Errorf("table %s: row width mismatch", td.Schema.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTPCC should panic on bad options")
		}
	}()
	MustTPCC(TPCCOptions{})
}

func TestNewOrderFlowGraph(t *testing.T) {
	g := NewOrderFlowGraph()
	if g.Class != TPCCNewOrder {
		t.Fatalf("class = %s", g.Class)
	}
	if len(g.Nodes) != 10 {
		t.Errorf("NewOrder flow graph has %d nodes", len(g.Nodes))
	}
	if len(g.Syncs) != 4 {
		t.Errorf("NewOrder flow graph has %d sync points, want 4", len(g.Syncs))
	}
	s := g.String()
	if !strings.Contains(s, "I(OrderLine) x(5-15)") || !strings.Contains(s, "sync") {
		t.Errorf("flow graph rendering missing pieces:\n%s", s)
	}
}

// TestPhases: a schedule needs phases with a positive duration and a
// non-empty mix of known classes; it cycles after its last phase, reads
// negative times as the first phase, and picks only the classes of the phase
// in force.
func TestPhases(t *testing.T) {
	graphs := map[string]*FlowGraph{"a": {Class: "a"}, "b": {Class: "b"}}
	for _, bad := range [][]Phase{
		nil,
		{{Duration: 0, Mix: map[string]float64{"a": 1}}},
		{{Duration: Seconds(1)}},
		{{Duration: Seconds(1), Mix: map[string]float64{"zzz": 1}}},
	} {
		if _, err := compilePhases(bad, graphs); err == nil {
			t.Errorf("compilePhases(%v) should fail", bad)
		}
	}
	if _, err := TATP(TATPOptions{Subscribers: 10, Phases: []Phase{{Duration: 1, Mix: map[string]float64{"a": 1}}}}); err == nil {
		t.Error("a TATP phase naming an unknown class should fail")
	}
	p, err := compilePhases([]Phase{
		{Duration: Seconds(10), Mix: map[string]float64{"a": 1}},
		{Duration: Seconds(20), Mix: map[string]float64{"b": 1}},
	}, graphs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		at   vclock.Nanos
		want string
	}{
		{Seconds(5), "a"},
		{Seconds(15), "b"},
		{Seconds(35), "a"}, // cycles after the last phase
		{-5, "a"},          // negative times clamp to the first phase
	} {
		if got := p.weights(c.at)[c.want]; got != 1 {
			t.Errorf("weights at %v: %v, want phase %s", c.at, p.weights(c.at), c.want)
		}
		if got := p.pick(rng, c.at); got != c.want {
			t.Errorf("pick at %v = %q, want %q", c.at, got, c.want)
		}
	}
}

func TestDynamicScenarios(t *testing.T) {
	// The Figure 10 shape: the class mix switches every 30 s.
	w, err := TATP(TATPOptions{Subscribers: 1000, Phases: []Phase{
		{Duration: Seconds(30), Mix: map[string]float64{TATPUpdSubData: 1}},
		{Duration: Seconds(30), Mix: map[string]float64{TATPGetNewDest: 1}},
		{Duration: Seconds(30), Mix: TATPStandardMix()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gen := ctx(13)
	gen.At = Seconds(5)
	if tx := w.Generate(gen); tx.Class != TATPUpdSubData {
		t.Errorf("phase 1 generated %s", tx.Class)
	}
	gen.At = Seconds(35)
	if tx := w.Generate(gen); tx.Class != TATPGetNewDest {
		t.Errorf("phase 2 generated %s", tx.Class)
	}

	// The Figure 13 shape: workloads A and B alternate.
	w2, err := TATP(TATPOptions{Subscribers: 1000, Phases: []Phase{
		{Duration: Seconds(15), Mix: map[string]float64{TATPGetNewDest: 1}},
		{Duration: Seconds(15), Mix: TATPStandardMix()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gen.At = Seconds(5)
	if tx := w2.Generate(gen); tx.Class != TATPGetNewDest {
		t.Errorf("workload A generated %s", tx.Class)
	}

	// The Figure 11 shape: uniform GetSubData turns skewed at t=20 s.
	w3, err := TATP(TATPOptions{
		Subscribers: 1000,
		Mix:         map[string]float64{TATPGetSubData: 1},
		Skew:        Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: Seconds(20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.At = Seconds(25)
	hot := 0
	for i := 0; i < 3000; i++ {
		tx := w3.Generate(gen)
		if tx.Class != TATPGetSubData {
			t.Fatalf("skew scenario generated %s", tx.Class)
		}
		if tx.Actions[0].Key.Int() < 200 {
			hot++
		}
	}
	if hot < 1200 {
		t.Errorf("post-skew hot accesses = %d of 3000, want roughly half", hot)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5) != vclock.Nanos(1_500_000_000) {
		t.Errorf("Seconds(1.5) = %d", Seconds(1.5))
	}
}
