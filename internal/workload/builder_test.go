package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"atrapos/internal/vclock"
)

// pickWeighted is the reference class chooser: it selects a key from weights
// proportionally to its weight, sorting the map on every draw.
func pickWeighted(rng *rand.Rand, weights map[string]float64) string {
	keys := make([]string, 0, len(weights))
	total := 0.0
	for k, w := range weights {
		if w > 0 {
			keys = append(keys, k)
			total += w
		}
	}
	sort.Strings(keys)
	if total <= 0 || len(keys) == 0 {
		return ""
	}
	x := rng.Float64() * total
	for _, k := range keys {
		x -= weights[k]
		if x <= 0 {
			return k
		}
	}
	return keys[len(keys)-1]
}

// TestCompiledMixMatchesPickWeighted pins the compiled mix chooser to the
// reference implementation: for the same random stream both must select the
// same class sequence, so compiling the mixes did not change any seeded
// workload.
func TestCompiledMixMatchesPickWeighted(t *testing.T) {
	weights := TATPStandardMix()
	ref := rand.New(rand.NewSource(1))
	rng := rand.New(rand.NewSource(1))
	mix := compileMix(weights)
	for i := 0; i < 2000; i++ {
		want := pickWeighted(ref, weights)
		got := mix.pick(rng)
		if got != want {
			t.Fatalf("pick %d: compiled chooser chose %q, reference chose %q", i, got, want)
		}
	}
}

// TestCompiledMixEdgeCases mirrors the pickWeighted edge cases.
func TestCompiledMixEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := compileMix(map[string]float64{}).pick(rng); got != "" {
		t.Errorf("empty mix should pick nothing, got %q", got)
	}
	if got := compileMix(map[string]float64{"x": 0}).pick(rng); got != "" {
		t.Errorf("all-zero mix should pick nothing, got %q", got)
	}
	if got := compileMix(map[string]float64{"solo": 3}).pick(rng); got != "solo" {
		t.Errorf("single-class mix picked %q", got)
	}
}

// FuzzMix holds the compiled chooser to the reference: up to eight classes
// with integer weights in [0, 1000] (two bytes per class) and a seed; over
// 256 draws from the same stream both must choose the same classes.
func FuzzMix(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 0, 0, 0}, int64(2))
	f.Add([]byte{0, 35, 0, 10, 0, 35, 0, 2, 0, 14, 0, 2, 0, 2}, int64(42))
	f.Add([]byte{3, 232, 0, 0, 3, 232, 0, 1, 0, 0, 3, 231, 1, 0, 2, 255}, int64(-7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		weights := map[string]float64{}
		for i := 0; i+1 < len(data) && i < 16; i += 2 {
			weights[fmt.Sprintf("c%d", i/2)] = float64((int(data[i])<<8 | int(data[i+1])) % 1001)
		}
		mix := compileMix(weights)
		ref, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 256; i++ {
			if got, want := mix.pick(rng), pickWeighted(ref, weights); got != want {
				t.Fatalf("draw %d of %v: compiled chooser chose %q, reference chose %q", i, weights, got, want)
			}
		}
	})
}

// TestTransactionBuilderReuse checks that the reusable transaction builder
// produces correct contents across reuse: sync points built after a Reset
// must not leak indices from the previous generation, and the backing arrays
// must actually be reused once grown.
func TestTransactionBuilderReuse(t *testing.T) {
	ctx := &GenContext{Rng: rand.New(rand.NewSource(3))}

	tx := ctx.Txn("first")
	tx.Add("A", Read, 1)
	tx.Add("B", Update, 2)
	tx.Add("C", Read, 3)
	tx.AddSync(16, 0, 1)
	tx.AddSyncRange(32, 1, 3)
	if len(tx.Actions) != 3 || len(tx.SyncPoints) != 2 {
		t.Fatalf("unexpected shape: %d actions, %d syncs", len(tx.Actions), len(tx.SyncPoints))
	}
	if got := tx.SyncPoints[0].Actions; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("sync 0 actions = %v", got)
	}
	if got := tx.SyncPoints[1].Actions; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("sync 1 actions = %v", got)
	}

	actionsCap, syncCap := cap(tx.Actions), cap(tx.SyncPoints)
	tx2 := ctx.Txn("second")
	if tx2 != tx {
		t.Fatal("context should hand out the same reusable transaction")
	}
	if len(tx2.Actions) != 0 || len(tx2.SyncPoints) != 0 || tx2.ReadOnly || tx2.MultiSite {
		t.Errorf("Reset left state behind: %+v", tx2)
	}
	tx2.Add("D", Delete, 9)
	tx2.AddSync(8, 0)
	if cap(tx2.Actions) != actionsCap || cap(tx2.SyncPoints) != syncCap {
		t.Error("reuse should keep the grown backing arrays")
	}
	if got := tx2.SyncPoints[0].Actions; len(got) != 1 || got[0] != 0 {
		t.Errorf("sync after reuse = %v", got)
	}
	if tx2.Class != "second" || tx2.Actions[0].Table != "D" {
		t.Errorf("content after reuse = %+v", tx2)
	}
}

// TestGeneratorsProduceStableShapes runs every built-in workload generator
// through a reused context and checks the class shapes stay well-formed (sync
// point indices in range, actions non-empty) across many reuses.
func TestGeneratorsProduceStableShapes(t *testing.T) {
	wls := []*Workload{
		SingleRowRead(500),
		ReadHundred(2000),
		MultisiteUpdate(500, 50),
		TwoTableSimple(500),
		MustTATP(TATPOptions{Subscribers: 500}),
		MustTPCC(TPCCOptions{Warehouses: 2, CustomersPerDistrict: 20, Items: 200}),
	}
	for _, wl := range wls {
		ctx := &GenContext{Rng: rand.New(rand.NewSource(7)), NumSites: 4}
		for i := 0; i < 500; i++ {
			ctx.At = vclock.Nanos(i) * 1000
			tx := wl.Generate(ctx)
			if len(tx.Actions) == 0 {
				t.Fatalf("%s: empty transaction at %d", wl.Name, i)
			}
			for si, sp := range tx.SyncPoints {
				if len(sp.Actions) == 0 {
					t.Fatalf("%s: empty sync point %d in class %s", wl.Name, si, tx.Class)
				}
				for _, ai := range sp.Actions {
					if ai < 0 || ai >= len(tx.Actions) {
						t.Fatalf("%s: sync point %d of class %s references action %d of %d",
							wl.Name, si, tx.Class, ai, len(tx.Actions))
					}
				}
			}
		}
	}
}
