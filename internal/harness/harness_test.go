package harness

import (
	"strconv"
	"strings"
	"testing"

	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// testScale is smaller than QuickScale so the whole experiment suite runs in
// a few seconds under `go test`.
func testScale() Scale {
	return Scale{
		CoresPerSocket:       2,
		MaxSockets:           4,
		MicroRows:            3000,
		Subscribers:          3000,
		Warehouses:           2,
		CustomersPerDistrict: 30,
		Items:                500,
		Transactions:         500,
		Seed:                 42,
	}
}

func TestScalesAndRegistry(t *testing.T) {
	q := QuickScale()
	p := PaperScale()
	if q.MaxSockets <= 0 || p.MaxSockets != 8 || p.CoresPerSocket != 10 {
		t.Errorf("unexpected scales: quick=%+v paper=%+v", q, p)
	}
	if q.Topology().NumCores() != q.MaxSockets*q.CoresPerSocket {
		t.Error("Topology() size mismatch")
	}
	sweep := q.socketSweep()
	if sweep[0] != 1 || sweep[len(sweep)-1] != q.MaxSockets {
		t.Errorf("socketSweep = %v", sweep)
	}
	reg := Registry()
	if len(reg) < 15 {
		t.Fatalf("registry has only %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(IDs()) != len(reg) {
		t.Error("IDs length mismatch")
	}
	if _, ok := Lookup("fig2"); !ok {
		t.Error("Lookup(fig2) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}, Notes: []string{"note"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	for _, want := range []string{"x — demo", "a", "bb", "333", "note:"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func parseTPS(cell string) float64 {
	fields := strings.Fields(cell)
	v, _ := strconv.ParseFloat(fields[0], 64)
	switch {
	case strings.Contains(cell, "MTPS"):
		return v * 1e6
	case strings.Contains(cell, "KTPS"):
		return v * 1e3
	default:
		return v
	}
}

func TestFig1(t *testing.T) {
	tbl, err := Fig1(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(testScale().socketSweep()) {
		t.Errorf("fig1 has %d rows", len(tbl.Rows))
	}
	// The extreme shared-nothing configuration keeps a high useful-work
	// fraction at the largest socket count; PLP loses efficiency.
	last := tbl.Rows[len(tbl.Rows)-1]
	sn, _ := strconv.ParseFloat(last[1], 64)
	plp, _ := strconv.ParseFloat(last[3], 64)
	if sn <= plp {
		t.Errorf("extreme SN useful fraction (%f) should exceed PLP (%f) at max sockets", sn, plp)
	}
}

func TestFig2Shape(t *testing.T) {
	tbl, err := Fig2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// Extreme shared-nothing scales with sockets.
	if parseTPS(last[1]) <= parseTPS(first[1]) {
		t.Error("extreme shared-nothing should scale with sockets")
	}
	// At the largest socket count the centralized design trails extreme SN.
	if parseTPS(last[2]) >= parseTPS(last[1]) {
		t.Error("centralized should trail extreme shared-nothing at max sockets")
	}
}

func TestFig3Shape(t *testing.T) {
	tbl, err := Fig3(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("fig3 has %d rows", len(tbl.Rows))
	}
	// Shared-nothing throughput decreases as multi-site percentage grows.
	if parseTPS(tbl.Rows[len(tbl.Rows)-1][2]) >= parseTPS(tbl.Rows[0][2]) {
		t.Error("coarse shared-nothing should lose throughput as multi-site transactions increase")
	}
}

func TestFig4Shape(t *testing.T) {
	tbl, err := Fig4(testScale())
	if err != nil {
		t.Fatal(err)
	}
	firstComm, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	lastComm, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][3], 64)
	if lastComm <= firstComm {
		t.Error("communication time per transaction should grow with multi-site percentage")
	}
	firstLog, _ := strconv.ParseFloat(tbl.Rows[0][5], 64)
	lastLog, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][5], 64)
	if lastLog <= firstLog {
		t.Error("logging time per transaction should grow with multi-site percentage")
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table1 has %d rows", len(tbl.Rows))
	}
	// Average per-socket throughput: local >= remote.
	avg := func(row []string) float64 {
		total := 0.0
		n := 0
		for _, c := range row[1 : len(row)-1] {
			v, err := strconv.ParseFloat(c, 64)
			if err == nil && v > 0 {
				total += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	local, remote := avg(tbl.Rows[0]), avg(tbl.Rows[2])
	if remote >= local {
		t.Errorf("remote allocation (%f) should not beat local (%f)", remote, local)
	}
	// Interconnect traffic ratio grows when memory is remote.
	localRatio, _ := strconv.ParseFloat(tbl.Rows[0][len(tbl.Rows[0])-1], 64)
	remoteRatio, _ := strconv.ParseFloat(tbl.Rows[2][len(tbl.Rows[2])-1], 64)
	if remoteRatio <= localRatio {
		t.Error("QPI/IMC ratio should grow under remote allocation")
	}
}

func TestFig5Shape(t *testing.T) {
	tbl, err := Fig5(testScale())
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	atrapos, plp := parseTPS(last[3]), parseTPS(last[4])
	if atrapos <= plp {
		t.Errorf("ATraPos (%f) should beat PLP (%f) on the partitionable workload at max sockets", atrapos, plp)
	}
	extreme := parseTPS(last[1])
	if atrapos < extreme/2 {
		t.Errorf("ATraPos (%f) should track extreme shared-nothing (%f)", atrapos, extreme)
	}
}

func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("fig6 has %d rows", len(tbl.Rows))
	}
	centralized := parseTPS(tbl.Rows[0][1])
	atrapos := parseTPS(tbl.Rows[4][1])
	hwAware := parseTPS(tbl.Rows[2][1])
	if atrapos <= centralized {
		t.Error("ATraPos should beat the centralized baseline")
	}
	if atrapos <= hwAware {
		t.Error("ATraPos should beat the oversaturated naive per-core placement")
	}
}

func TestFig7(t *testing.T) {
	tbl, err := Fig7(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Errorf("NewOrder flow graph should have 10 nodes, got %d", len(tbl.Rows))
	}
	if len(tbl.Notes) != 4 {
		t.Errorf("NewOrder flow graph should list 4 synchronization points, got %d", len(tbl.Notes))
	}
}

func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("fig8 has %d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		impr, _ := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if impr < 1.0 {
			t.Errorf("%s %s: ATraPos improvement %.2fx below 1x", row[0], row[1], impr)
		}
	}
}

// TestTable2Shape holds Table 2 to the paper's bound: monitoring costs at most
// 3.32 % of throughput in every class (GetSubData is the paper's worst case).
func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		overhead, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil || overhead > 3.32 {
			t.Errorf("%s: monitoring overhead %s exceeds the paper's 3.32%% (%v)", row[0], row[3], err)
		}
	}
}

// TestFig9Shape holds Figure 9's claim that repartitioning cost grows
// linearly with the number of repartitioning actions: for the merge and the
// split columns, a least-squares line in the action count explains at least
// 0.99 of the variance, and its slope is positive. It runs at the CLI's quick
// scale, the figure as published here (2–16 actions, ~50 ms); testScale's
// 1–8 actions on 3,000 rows merge in odd/even steps. The rearrange column
// joins the check once it is measured rather than summed from the other two.
func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("fig9 has %d rows", len(tbl.Rows))
	}
	col := func(c int) []float64 {
		out := make([]float64, len(tbl.Rows))
		for i, row := range tbl.Rows {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("fig9 row %d column %d: %v", i, c, err)
			}
			out[i] = v
		}
		return out
	}
	actions := col(0)
	for c, name := range map[int]string{1: "merge", 2: "split"} {
		slope, r2 := linearFit(actions, col(c))
		if slope <= 0 || r2 < 0.99 {
			t.Errorf("%s cost vs actions: slope %.4g ms/action, R² %.4f; want a rising line with R² >= 0.99", name, slope, r2)
		}
	}
}

// linearFit returns the slope of the least-squares line through (x, y) and the
// share of y's variance it explains (R²).
func linearFit(x, y []float64) (slope, r2 float64) {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx, sy = sx+x[i], sy+y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx, sxy, syy = sxx+dx*dx, sxy+dx*dy, syy+dy*dy
	}
	if sxx == 0 || syy == 0 {
		return 0, 0
	}
	return sxy / sxx, sxy * sxy / (sxx * syy)
}

func TestFig10Series(t *testing.T) {
	tbl, err := Fig10(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Errorf("fig10 series has only %d samples", len(tbl.Rows))
	}
	if len(tbl.Header) != 3 {
		t.Errorf("fig10 should have a time column and two series, got %v", tbl.Header)
	}
}

func TestFig11And12And13Run(t *testing.T) {
	for _, fn := range []func(Scale) (*Table, error){Fig11, Fig12, Fig13} {
		tbl, err := fn(testScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) < 5 {
			t.Errorf("%s series has only %d samples", tbl.ID, len(tbl.Rows))
		}
	}
}

func TestAblations(t *testing.T) {
	for _, fn := range []func(Scale) (*Table, error){
		AblationSubPartitions, AblationSLI,
	} {
		tbl, err := fn(testScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", tbl.ID)
		}
		if tbl.String() == "" {
			t.Errorf("%s renders empty", tbl.ID)
		}
	}
}

func TestSeriesTable(t *testing.T) {
	window := workload.Seconds(1)
	series := map[string][]vclock.Sample{
		"a": {{At: window, Throughput: 10}, {At: 2 * window, Throughput: 20}},
		"b": {{At: window, Throughput: 5}},
	}
	tbl := seriesTable("x", "demo", window, series, []string{"n"})
	if len(tbl.Rows) != 2 {
		t.Fatalf("series table has %d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "10" || tbl.Rows[0][2] != "5" {
		t.Errorf("unexpected first row %v", tbl.Rows[0])
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtTPS(2_000_000) != "2.00 MTPS" || fmtTPS(1500) != "1.5 KTPS" || fmtTPS(10) != "10 TPS" {
		t.Error("fmtTPS formatting changed")
	}
	if fmtFactor(1.5) != "1.50x" || fmtPercent(0.033) != "3.30%" || fmtMicros(1500) != "1.5" {
		t.Error("format helpers changed")
	}
}
