package workload

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"atrapos/internal/vclock"
)

// pinnedStep is the virtual time between two pinned transactions: 2,000 of
// them span 200 s, which crosses every boundary of the pinned phase lists
// (30 s phases cycling every 90 s, a multisite step at 100 s) and wraps the
// Figure 10 schedule twice.
var pinnedStep = Seconds(0.1)

// fig10Pinned is TATP with Figure 10's three 30 s phases.
func fig10Pinned() *Workload {
	return MustTATP(TATPOptions{Subscribers: 1000, Phases: []Phase{
		{Duration: Seconds(30), Mix: map[string]float64{TATPUpdSubData: 1}},
		{Duration: Seconds(30), Mix: map[string]float64{TATPGetNewDest: 1}},
		{Duration: Seconds(30), Mix: TATPStandardMix()},
	}})
}

// hashWeights folds a class mix into h in class order.
func hashWeights(h hash.Hash64, weights map[string]float64) {
	classes := make([]string, 0, len(weights))
	for c := range weights {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(h, "w %s=%v;", c, weights[c])
	}
}

// streamHash generates n transactions of wl at seed 42 on site 1 of 4,
// stepping the virtual time by pinnedStep, and hashes the workload's name,
// every class's flow graph, the class weights at every step and every
// transaction: its class, flags, actions and sync points.
func streamHash(wl *Workload, n int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s;", wl.Name)
	classes := make([]string, 0, len(wl.Graphs))
	for c := range wl.Graphs {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprint(h, wl.Graphs[c].String())
	}
	ctx := &GenContext{Rng: rand.New(rand.NewSource(42)), NumSites: 4, HomeSite: 1}
	for i := 0; i < n; i++ {
		ctx.At = vclock.Nanos(i) * pinnedStep
		hashWeights(h, wl.ClassWeights(ctx.At))
		tx := wl.Generate(ctx)
		fmt.Fprintf(h, "t %s ro=%v ms=%v;", tx.Class, tx.ReadOnly, tx.MultiSite)
		for _, a := range tx.Actions {
			fmt.Fprintf(h, "a %s %d %d %v;", a.Table, a.Op, a.Key, a.Row)
		}
		for _, s := range tx.SyncPoints {
			fmt.Fprintf(h, "s %v %d;", s.Actions, s.Bytes)
		}
	}
	return h.Sum64()
}

// TestGeneratorStreamsPinned pins what every workload constructor generates
// at a fixed seed: its transactions, its class weights over time and its flow
// graphs. The hashes were taken before the microbenchmarks shared one
// builder, the two multisite generators became one and the class mixes were
// compiled at build time, so a refactor of any generator that changes one
// drawn number, one key or one class shows here.
func TestGeneratorStreamsPinned(t *testing.T) {
	drift := func(at vclock.Nanos) int {
		if at < Seconds(100) {
			return 0
		}
		return 100
	}
	cases := []struct {
		name string
		wl   *Workload
		want uint64
	}{
		{"SingleRowRead", SingleRowRead(1000), 0x751b0be619e60602},
		{"ReadHundred", ReadHundred(1000), 0x640c9a7d158cefff},
		{"MultisiteUpdate/0", MultisiteUpdate(1000, 0), 0xdcb07329a09f556b},
		{"MultisiteUpdate/50", MultisiteUpdate(1000, 50), 0x59942a94cd988d6a},
		{"MultisiteUpdate/100", MultisiteUpdate(1000, 100), 0x6b2e81463b58ce87},
		{"MultisiteUpdateDrifting/0-100", MultisiteUpdateDrifting(1000, drift), 0x295fc68f3335057d},
		{"TwoTableSimple", TwoTableSimple(1000), 0xfb6f55507dda2729},
		{"ZipfHotkey", ZipfHotkey(1000, 10, 30), 0x3abadceca2bacdb},
		{"YCSB/A", YCSB(1000, YCSBA), 0x7c066be71f9b1c0},
		{"YCSB/B", YCSB(1000, YCSBB), 0x1b63ce1bbbd31a1},
		{"YCSB/C", YCSB(1000, YCSBC), 0x5fd6580ba070ae2e},
		{"TATP/standard", MustTATP(TATPOptions{Subscribers: 1000}), 0xfb9e35b428cc498c},
		{"TATP/fig10", fig10Pinned(), 0x33b0ec28bfac71bd},
		{"TPCC", MustTPCC(TPCCOptions{Warehouses: 2, CustomersPerDistrict: 20, Items: 200}), 0x710ee86d9acd7e61},
	}
	for _, tc := range cases {
		if got := streamHash(tc.wl, 2000); got != tc.want {
			t.Errorf("%s: stream hash %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}
