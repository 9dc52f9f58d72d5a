package engine

import (
	"testing"

	"atrapos/internal/numa"
	"atrapos/internal/topology"
	"atrapos/internal/txn"
	"atrapos/internal/workload"
)

// runIsland executes the multisite microbenchmark on the given design and
// island level with a single worker, so results are exactly reproducible.
func runIsland(t *testing.T, top *topology.Topology, design Design, level topology.Level, pct int) *Result {
	t.Helper()
	e, err := New(Config{
		Design:      design,
		IslandLevel: level,
		Workload:    workload.MultisiteUpdate(3000, pct),
		Topology:    top,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{Transactions: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSharedNothingDefaultsToSocket checks the parametric design's zero-value
// granularity.
func TestSharedNothingDefaultsToSocket(t *testing.T) {
	def := runIsland(t, smallTopology(), SharedNothing, 0, 50)
	coarse := runIsland(t, smallTopology(), SharedNothing, topology.LevelSocket, 50)
	if def.Committed != coarse.Committed || def.ThroughputTPS != coarse.ThroughputTPS {
		t.Errorf("unset IslandLevel should mean socket granularity: %f vs %f", def.ThroughputTPS, coarse.ThroughputTPS)
	}
}

// TestMachineLevelIslands checks the coarsest granularity: one instance, so
// no transaction is ever multi-site and no 2PC runs, at the price of shared
// state.
func TestMachineLevelIslands(t *testing.T) {
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelMachine,
		Workload:    workload.MultisiteUpdate(3000, 100),
		Topology:    smallTopology(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.snap.numSites() != 1 {
		t.Fatalf("machine-level deployment has %d sites, want 1", e.snap.numSites())
	}
	res, err := e.Run(RunOptions{Transactions: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("machine-level islands should commit transactions")
	}
	if res.Breakdown.ByComp[2] != 0 { // vclock.Communication
		// With a single site no work is ever shipped to a remote instance.
		t.Errorf("machine-level islands should have zero communication time, got %v", res.Breakdown.ByComp)
	}
}

// TestDieLevelIslands deploys one instance per CCX on a chiplet machine and
// checks the site structure tracks the die islands.
func TestDieLevelIslands(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 4})
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelDie,
		Workload:    workload.MultisiteUpdate(3000, 50),
		Topology:    top,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.snap.numSites() != top.NumDies() {
		t.Fatalf("die-level deployment has %d sites, want %d", e.snap.numSites(), top.NumDies())
	}
	for site, cores := range e.snap.wiring.siteCores {
		for _, c := range cores {
			if top.DieOf(c.ID) != topology.DieID(site) {
				t.Errorf("site %d contains core %d of die %d", site, c.ID, top.DieOf(c.ID))
			}
		}
	}
	res, err := e.Run(RunOptions{Transactions: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.MultiSite == 0 {
		t.Fatalf("die-level run should commit and see multisite work: %+v", res)
	}
}

// TestDieLevelCheaperThanItsSocketSplit: on a chiplet machine with expensive
// inter-socket links, a die-grained deployment at moderate multisite load
// must beat a core-grained one — the sub-socket island absorbs coordination
// that would otherwise be per-core.
func TestDieLevelBeatsCoreLevelOnChiplet(t *testing.T) {
	top := func() *topology.Topology {
		return topology.MustNew(topology.Config{
			Sockets: 2, CoresPerSocket: 16, DiesPerSocket: 4,
			Distance: [][]int{{0, 2}, {2, 0}},
		})
	}
	core := runIsland(t, top(), SharedNothing, topology.LevelCore, 50)
	die := runIsland(t, top(), SharedNothing, topology.LevelDie, 50)
	if die.ThroughputTPS <= core.ThroughputTPS {
		t.Errorf("die islands (%f) should beat core islands (%f) at 50%% multisite on a chiplet machine",
			die.ThroughputTPS, core.ThroughputTPS)
	}
}

// TestZeroMultisiteZeroCommunication: with the generators' per-site key
// ranges aligned to btree.UniformBounds, a 0% multisite workload never leaks
// a "local" key into a neighbouring instance — even on a 32-site machine
// whose island count does not divide the row count (3000/32 truncates; the
// old rows/numSites arithmetic sent a few keys per site next door, visible
// as nonzero communication).
func TestZeroMultisiteZeroCommunication(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 16, DiesPerSocket: 4})
	if n := top.NumCores(); n != 32 {
		t.Fatalf("want a 32-core machine, got %d", n)
	}
	res := runIsland(t, top, SharedNothing, topology.LevelCore, 0)
	if res.Committed == 0 {
		t.Fatal("run should commit")
	}
	if res.MultiSite != 0 {
		t.Fatalf("0%% multisite generated %d multisite transactions", res.MultiSite)
	}
	if comm := res.Breakdown.ByComp[2]; comm != 0 { // vclock.Communication
		t.Errorf("0%% multisite on 32 sites should have zero communication time, got %v", comm)
	}
}

// TestInvalidIslandLevel rejects out-of-range granularities.
func TestInvalidIslandLevel(t *testing.T) {
	_, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.Level(42),
		Workload:    workload.MultisiteUpdate(100, 0),
		Topology:    smallTopology(),
	})
	if err == nil {
		t.Fatal("invalid island level should be rejected")
	}
}

// TestIslandLevelSurvivesSocketFailure: a die-level deployment on a machine
// with a failed socket builds sites only from alive islands.
func TestIslandLevelSurvivesSocketFailure(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 2})
	if err := top.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Design:      SharedNothing,
		IslandLevel: topology.LevelDie,
		Workload:    workload.MultisiteUpdate(3000, 50),
		Topology:    top,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.snap.numSites() != 2 {
		t.Fatalf("only socket 0's two dies should form sites, got %d", e.snap.numSites())
	}
	res, err := e.Run(RunOptions{Transactions: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("run on the surviving islands should commit")
	}
}

// managerTrace is the cost of a fixed begin/commit sequence alternating
// between the first cores of sockets 0 and 1. A central transaction list and
// state lock bounce between the sockets where per-socket ones stay local, so
// the sum tells the two layouts apart.
func managerTrace(m *txn.Manager, top *topology.Topology) numa.Cost {
	var cost numa.Cost
	var a, b txn.Txn
	for range 4 {
		cost += m.BeginInto(&a, top.CoresOn(0)[0].ID)
		cost += m.BeginInto(&b, top.CoresOn(1)[0].ID)
		ca, _ := m.Commit(&a)
		cb, _ := m.Commit(&b)
		cost += ca + cb
	}
	return cost
}

// TestEveryDesignHasAWiring checks that every design runs on an island
// wiring. The island-routed design has at least one site; the others run as
// one machine-wide site whose log is homed on socket 0 (and flushes through
// the device of socket 0's first die), with the transaction manager their
// row's state stripe asks for, and still report no island level and a wiring
// that a socket failure cannot make stale. Under Adaptive every design but
// the coordinator-routed one builds a planner.
func TestEveryDesignHasAWiring(t *testing.T) {
	prof, ok := topology.ProfileByName("chiplet-2s4d")
	if !ok {
		t.Fatal("chiplet-2s4d missing")
	}
	for _, d := range allDesigns() {
		a, err := New(Config{Design: d, Workload: workload.MultisiteUpdate(2000, 0), Topology: prof.Build(), Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.adaptive != nil, d != Centralized; got != want {
			t.Errorf("%v: Adaptive builds a planner: %v, want %v", d, got, want)
		}
		e, err := New(Config{
			Design:       d,
			Workload:     workload.MultisiteUpdate(2000, 0),
			Topology:     prof.Build(),
			DeviceLayout: "nvme-per-socket",
		})
		if err != nil {
			t.Fatal(err)
		}
		w := e.snap.wiring
		if len(w.sites) == 0 {
			t.Fatalf("%v: wiring has no site", d)
		}
		if d == SharedNothing {
			continue
		}
		top := e.cfg.Topology
		if len(w.sites) != 1 || w.logs.NumLogs() != 1 || w.logs.Home(0) != 0 {
			t.Errorf("%v: %d sites, %d logs, log 0 homed on socket %d; want one site and one log on socket 0",
				d, len(w.sites), w.logs.NumLogs(), w.logs.Home(0))
		}
		if got, want := w.logs.Log(0).Device(), e.devices.DeviceFor(top.FirstDieOn(0)); got != want {
			t.Errorf("%v: log bound to %v, want socket 0's first-die device %v", d, got, want)
		}
		central := managerTrace(txn.NewManager(e.domain, numa.NewStriped(e.domain, false), numa.NewStriped(e.domain, false)), top)
		perSocket := managerTrace(txn.NewManager(e.domain, numa.NewStriped(e.domain, true), numa.NewStriped(e.domain, true)), top)
		if central == perSocket {
			t.Fatalf("the trace cannot tell a central manager (%d) from a per-socket one", central)
		}
		want, kind := central, "central"
		if d == HWAware || d == ATraPos {
			want, kind = perSocket, "per-socket"
		}
		if got := managerTrace(w.txnMgr, top); got != want {
			t.Errorf("%v: transaction manager trace costs %d, want the %s manager's %d", d, got, kind, want)
		}
		res, err := e.Run(RunOptions{Transactions: 200, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.IslandLevel != "" {
			t.Errorf("%v: Result.IslandLevel = %q, want empty", d, res.IslandLevel)
		}
		if err := e.FailSocket(1); err != nil {
			t.Fatal(err)
		}
		if !e.WiringConverged() {
			t.Errorf("%v: wiring reported stale after FailSocket(1); the design is never re-wired", d)
		}
	}
}
