package workload

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestZipfHotkeyShape checks the class mix, self-canceling churn pairs,
// within-transaction overwrite pairs, site-locality of single-site keys and
// per-seed determinism of the zipf-hotkey generator.
func TestZipfHotkeyShape(t *testing.T) {
	const rows = 8000
	w := ZipfHotkey(rows, 20, 30)
	if w.Name != "zipf-hotkey" {
		t.Fatalf("name = %q", w.Name)
	}
	weights := w.ClassWeights(0)
	var total float64
	for _, v := range weights {
		total += v
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("class weights sum to %f, want 100", total)
	}

	gc := &GenContext{Rng: rand.New(rand.NewSource(7)), HomeSite: 2, NumSites: 4}
	lo, hi := siteKeyRange(rows, 2, 4)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		tx := w.Generate(gc)
		counts[tx.Class]++
		switch tx.Class {
		case "ZipfChurnPair":
			if len(tx.Actions) != 4 || tx.MultiSite {
				t.Fatalf("churn txn shape: %d actions, multisite=%v", len(tx.Actions), tx.MultiSite)
			}
			for p := 0; p < 4; p += 2 {
				del, ins := tx.Actions[p], tx.Actions[p+1]
				if del.Op != Delete || ins.Op != Insert || del.Key != ins.Key {
					t.Fatalf("churn pair %d not self-canceling: %v then %v", p/2, del, ins)
				}
			}
		case "ZipfHotUpdate":
			if len(tx.Actions) != 10 || tx.MultiSite {
				t.Fatalf("hot txn shape: %d actions, multisite=%v", len(tx.Actions), tx.MultiSite)
			}
			for p := 0; p < 10; p += 2 {
				if tx.Actions[p].Key != tx.Actions[p+1].Key {
					t.Fatalf("hot txn pair %d does not overwrite itself", p/2)
				}
			}
		case "ZipfMultiUpdate":
			if !tx.MultiSite || len(tx.Actions) != 10 || len(tx.SyncPoints) == 0 {
				t.Fatalf("multi txn shape: %d actions, multisite=%v, syncs=%d",
					len(tx.Actions), tx.MultiSite, len(tx.SyncPoints))
			}
		default:
			t.Fatalf("unknown class %q", tx.Class)
		}
		// Every single-site key must be served by the generator's home
		// instance, or the engine silently escalates the txn to 2PC.
		if !tx.MultiSite {
			for _, a := range tx.Actions {
				if k := a.Key.Int(); k < lo || k >= hi {
					t.Fatalf("%s key %d outside home range [%d,%d)", tx.Class, k, lo, hi)
				}
			}
		}
	}
	if counts["ZipfChurnPair"] < n/5 || counts["ZipfChurnPair"] > n/2 {
		t.Errorf("churn share off: %d/%d, want ~30%%", counts["ZipfChurnPair"], n)
	}
	if counts["ZipfMultiUpdate"] == 0 || counts["ZipfHotUpdate"] == 0 {
		t.Errorf("missing classes: %v", counts)
	}
}

// TestZipfHotkeyDeterminism: two contexts with the same seed produce the same
// transaction stream — the property every crash-pair drill relies on.
func TestZipfHotkeyDeterminism(t *testing.T) {
	w := ZipfHotkey(4000, 10, 25)
	a := &GenContext{Rng: rand.New(rand.NewSource(99)), HomeSite: 1, NumSites: 2}
	b := &GenContext{Rng: rand.New(rand.NewSource(99)), HomeSite: 1, NumSites: 2}
	for i := 0; i < 500; i++ {
		ta, tb := w.Generate(a), w.Generate(b)
		if ta.Class != tb.Class || len(ta.Actions) != len(tb.Actions) {
			t.Fatalf("txn %d diverged: %s/%d vs %s/%d", i, ta.Class, len(ta.Actions), tb.Class, len(tb.Actions))
		}
		for j := range ta.Actions {
			aj, bj := ta.Actions[j], tb.Actions[j]
			if aj.Op != bj.Op || aj.Key != bj.Key || aj.Table != bj.Table {
				t.Fatalf("txn %d action %d diverged: %v vs %v", i, j, aj, bj)
			}
		}
	}
}

// TestZipfKeySkew: the cheap zipf approximation concentrates mass at the low
// end but still covers the range.
func TestZipfKeySkew(t *testing.T) {
	gc := &GenContext{Rng: rand.New(rand.NewSource(3))}
	const span = 10000
	low, max := 0, int64(0)
	const n = 20000
	for i := 0; i < n; i++ {
		k := gc.zipfKey(span)
		if k < 0 || k >= span {
			t.Fatalf("key %d outside [0,%d)", k, span)
		}
		if k < span/100 {
			low++
		}
		if k > max {
			max = k
		}
	}
	if frac := float64(low) / n; frac < 0.3 {
		t.Errorf("only %.2f of draws hit the first 1%% of keys; want a hot head", frac)
	}
	if max < span/2 {
		t.Errorf("max draw %d never reached the upper half; want full coverage", max)
	}
	if gc.zipfKey(1) != 0 || gc.zipfKey(0) != 0 {
		t.Error("degenerate spans should return 0")
	}
}

// powKey is the reference zipf key: floor(span^u)-1 by math.Pow, clamped
// into [0, span).
func powKey(span int64, u float64) int64 {
	if span <= 1 {
		return 0
	}
	k := int64(math.Pow(float64(span), u)) - 1
	if k < 0 {
		k = 0
	}
	if k >= span {
		k = span - 1
	}
	return k
}

// zipfEdges are the u at and around math.Pow's branch points.
var zipfEdges = []float64{0, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0), 5e-324}

// checkZipfPow holds one draw of the sampler to math.Pow: the power bit for
// bit, since a one-ulp slip rarely moves the truncated key, and the key.
func checkZipfPow(t *testing.T, z *zipfSpan, u float64) {
	t.Helper()
	if got, want := z.pow(u), math.Pow(z.x, u); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("span %d, u %v (%#x): power %v, math.Pow gives %v", z.span, u, math.Float64bits(u), got, want)
	}
	if got, want := z.key(u), powKey(z.span, u); got != want {
		t.Fatalf("span %d, u %v (%#x): key %d, math.Pow gives %d", z.span, u, math.Float64bits(u), got, want)
	}
}

// TestZipfSamplerIsMathPow holds the memoized sampler to math.Pow bit for
// bit on a million seeded draws and the branch edges of u per span: the
// smallest spans, the site spans of 100,000 rows over 1, 2, 8 and 32 sites,
// and a span past a million. Every eighth draw is from the widest span
// instead, as a multisite generator alternates between its site range and
// the whole table, so both memo slots and the evictions between cases are
// exercised too.
func TestZipfSamplerIsMathPow(t *testing.T) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow is an assembly routine on s390x, not the pure-Go pow the sampler replicates")
	}
	const wide, n = 1_300_000, 1_000_000
	gc := &GenContext{Rng: rand.New(rand.NewSource(11))}
	ref := rand.New(rand.NewSource(11))
	for _, span := range []int64{2, 3, 100_000, 50_000, 12_500, 3125, wide} {
		z := newZipfSpan(span)
		for i := 0; i < n; i++ {
			if i%8 == 7 {
				if got, want := gc.zipfKey(wide), powKey(wide, ref.Float64()); got != want {
					t.Fatalf("span %d, draw %d: key %d, math.Pow gives %d", wide, i, got, want)
				}
			}
			u := ref.Float64()
			checkZipfPow(t, &z, u)
			if got, want := gc.zipfKey(span), z.key(u); got != want {
				t.Fatalf("span %d, draw %d: the memo's key %d, the span's own %d", span, i, got, want)
			}
		}
		for _, u := range zipfEdges {
			checkZipfPow(t, &z, u)
		}
	}
}

// FuzzZipfPow holds the sampler to math.Pow on arbitrary spans and any u in
// [0, 1). The seeds below run with every `go test`; `go test -fuzz
// FuzzZipfPow ./internal/workload` explores.
func FuzzZipfPow(f *testing.F) {
	for _, span := range []int64{2, 3, 3125, 50_000, 1_300_000, math.MaxInt64} {
		for _, u := range zipfEdges {
			f.Add(span, math.Float64bits(u))
		}
	}
	f.Add(int64(1)<<53+1, math.Float64bits(0.75))
	f.Fuzz(func(t *testing.T, span int64, bits uint64) {
		u := math.Float64frombits(bits)
		if span <= 1 || !(u >= 0 && u < 1) {
			t.Skip()
		}
		if runtime.GOARCH == "s390x" {
			t.Skip("math.Pow is an assembly routine on s390x")
		}
		z := newZipfSpan(span)
		checkZipfPow(t, &z, u)
	})
}

var zipfSink int64

// BenchmarkZipfKey is one generator draw on exec-local's site span (100,000
// rows over two sites): the RNG draw and the memoized Pow, 0 allocs asserted.
func BenchmarkZipfKey(b *testing.B) {
	gc := &GenContext{Rng: rand.New(rand.NewSource(1))}
	if allocs := testing.AllocsPerRun(100, func() { zipfSink += gc.zipfKey(50_000) }); allocs != 0 {
		b.Fatalf("zipfKey allocates %.1f times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink += gc.zipfKey(50_000)
	}
}
