package engine

import (
	"testing"
	"time"

	"atrapos/internal/core"
	"atrapos/internal/numa"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// smallTopology keeps engine tests fast: 4 sockets of 4 cores.
func smallTopology() *topology.Topology {
	return topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
}

func runDesign(t *testing.T, design Design, wl *workload.Workload, txns int) *Result {
	t.Helper()
	e, err := New(Config{Design: design, Workload: wl, Topology: smallTopology()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{Transactions: txns, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// allDesigns lists every row of the design table.
func allDesigns() []Design {
	ds := make([]Design, len(designRows))
	for i := range ds {
		ds[i] = Design(i)
	}
	return ds
}

func TestDesignString(t *testing.T) {
	if len(designRows) != 5 {
		t.Fatalf("design table has %d rows, want 5", len(designRows))
	}
	seen := map[string]bool{}
	for _, d := range append(allDesigns(), Design(99)) {
		if d.String() == "" || seen[d.String()] {
			t.Errorf("design %d has an empty or repeated name %q", d, d.String())
		}
		seen[d.String()] = true
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Design: Centralized}); err == nil {
		t.Error("missing workload should fail")
	}
	if _, err := New(Config{Design: Design(42), Workload: workload.SingleRowRead(100), Topology: smallTopology()}); err == nil {
		t.Error("unknown design should fail")
	}
	e := MustNew(Config{Design: ATraPos, Workload: workload.SingleRowRead(100), Topology: smallTopology()})
	if _, err := e.Run(RunOptions{}); err == nil {
		t.Error("run without a limit should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestEngineConstructionLoadsData(t *testing.T) {
	wl := workload.SingleRowRead(2000)
	for _, d := range allDesigns() {
		e, err := New(Config{Design: d, Workload: wl, Topology: smallTopology()})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		tbl, err := e.Store().Table("mbr")
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if tbl.Len() != 2000 {
			t.Errorf("%v: loaded %d rows", d, tbl.Len())
		}
		if e.Design() != d || e.Domain() == nil || e.Topology() == nil {
			t.Errorf("%v: accessor mismatch", d)
		}
		p := e.Placement()
		if err := p.Validate(); err != nil {
			t.Errorf("%v: invalid placement: %v", d, err)
		}
		switch d {
		case Centralized:
			if p.Tables["mbr"].NumPartitions() != 1 {
				t.Errorf("centralized should have 1 partition, got %d", p.Tables["mbr"].NumPartitions())
			}
		case PLP, HWAware, ATraPos:
			if p.Tables["mbr"].NumPartitions() != 16 {
				t.Errorf("%v should have one partition per core, got %d", d, p.Tables["mbr"].NumPartitions())
			}
		case SharedNothing:
			if p.Tables["mbr"].NumPartitions() != 4 {
				t.Errorf("socket-grained SN should have one partition per socket, got %d", p.Tables["mbr"].NumPartitions())
			}
		}
	}
}

func TestAllDesignsCommitReadOnlyWorkload(t *testing.T) {
	wl := workload.SingleRowRead(4000)
	for _, d := range allDesigns() {
		res := runDesign(t, d, wl, 600)
		if res.Committed+res.Aborted != 600 {
			t.Errorf("%v: committed %d aborted %d", d, res.Committed, res.Aborted)
		}
		if res.Committed < 590 {
			t.Errorf("%v: too many aborts on a read-only workload: %d", d, res.Aborted)
		}
		if res.ThroughputTPS <= 0 || res.VirtualTime <= 0 {
			t.Errorf("%v: empty result %+v", d, res)
		}
		if res.UsefulFraction <= 0 || res.UsefulFraction > 1 {
			t.Errorf("%v: useful fraction %f", d, res.UsefulFraction)
		}
		if res.Breakdown.ByComp[vclock.Execution] <= 0 {
			t.Errorf("%v: no execution time recorded", d)
		}
	}
}

func TestAllDesignsCommitUpdateWorkload(t *testing.T) {
	wl := workload.MultisiteUpdate(4000, 20)
	for _, d := range allDesigns() {
		res := runDesign(t, d, wl, 400)
		if res.Committed < 350 {
			t.Errorf("%v: committed only %d of 400", d, res.Committed)
		}
		if res.Breakdown.ByComp[vclock.Logging] <= 0 {
			t.Errorf("%v: update workload recorded no logging time", d)
		}
		if res.TimePerTransaction(vclock.Execution) <= 0 {
			t.Errorf("%v: no per-transaction execution time", d)
		}
	}
}

func TestTATPRunsOnAllDesigns(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 2000})
	for _, d := range allDesigns() {
		res := runDesign(t, d, wl, 400)
		if res.Committed < 380 {
			t.Errorf("%v: committed %d of 400 TATP transactions", d, res.Committed)
		}
	}
}

// TestClockSpreadAtRunEnd: every design reports the spread of its cores'
// clocks at the end of a run, whose greatest is the run's virtual time.
func TestClockSpreadAtRunEnd(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 2000})
	for _, d := range allDesigns() {
		res := runDesign(t, d, wl, 400)
		if c := res.Clocks; c.Max != res.VirtualTime || c.Min < 0 || c.Min > c.Mean || c.Mean > c.Max {
			t.Errorf("%v: clocks %+v at run end, virtual time %d", d, c, res.VirtualTime)
		}
	}
}

func TestTPCCRunsOnPartitionedDesigns(t *testing.T) {
	wl := workload.MustTPCC(workload.TPCCOptions{Warehouses: 8, CustomersPerDistrict: 30, Items: 1000})
	for _, d := range []Design{Centralized, PLP, ATraPos} {
		res := runDesign(t, d, wl, 200)
		// A run issues one transaction at a time, so none ever meets a held
		// lock: even the contended Warehouse and District rows abort nothing.
		if res.Committed != 200 || res.Aborted != 0 {
			t.Errorf("%v: committed %d, aborted %d of 200 TPC-C transactions; want all committed",
				d, res.Committed, res.Aborted)
		}
	}
}

func TestPartitionableScalingShape(t *testing.T) {
	// The core result of Figures 2 and 5: on a perfectly partitionable
	// read-only workload over the whole machine, the centralized design loses
	// to extreme shared-nothing and to ATraPos, while ATraPos tracks the
	// shared-nothing configurations.
	wl := workload.SingleRowRead(8000)
	throughput := func(d Design, level topology.Level) float64 {
		e := MustNew(Config{Design: d, IslandLevel: level, Workload: wl, Topology: smallTopology()})
		res, err := e.Run(RunOptions{Transactions: 1200, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputTPS
	}
	central := throughput(Centralized, 0)
	extreme := throughput(SharedNothing, topology.LevelCore)
	atrapos := throughput(ATraPos, 0)
	plp := throughput(PLP, 0)
	if extreme <= central {
		t.Errorf("extreme shared-nothing (%f) should beat centralized (%f)", extreme, central)
	}
	if atrapos <= central {
		t.Errorf("ATraPos (%f) should beat centralized (%f)", atrapos, central)
	}
	if atrapos <= plp*1.05 {
		t.Errorf("ATraPos (%f) should beat PLP (%f) on the partitionable workload", atrapos, plp)
	}
	// ATraPos stays within a reasonable factor of extreme shared-nothing.
	if atrapos < extreme/2 {
		t.Errorf("ATraPos (%f) should be in the same league as extreme shared-nothing (%f)", atrapos, extreme)
	}
}

func TestMultisiteTransactionsHurtSharedNothing(t *testing.T) {
	throughput := func(pct int) float64 {
		wl := workload.MultisiteUpdate(8000, pct)
		e := MustNew(Config{Design: SharedNothing, IslandLevel: topology.LevelSocket, Workload: wl, Topology: smallTopology()})
		res, err := e.Run(RunOptions{Transactions: 500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputTPS
	}
	local := throughput(0)
	half := throughput(50)
	all := throughput(100)
	if half >= local {
		t.Errorf("50%% multi-site (%f) should be slower than all-local (%f)", half, local)
	}
	if all >= half {
		t.Errorf("100%% multi-site (%f) should be slower than 50%% (%f)", all, half)
	}
	if local < all*2 {
		t.Errorf("distributed transactions should cost a large factor: local %f vs all-multi-site %f", local, all)
	}
}

func TestMultisiteBreakdownGrowsCommunication(t *testing.T) {
	run := func(pct int) *Result {
		wl := workload.MultisiteUpdate(8000, pct)
		e := MustNew(Config{Design: SharedNothing, IslandLevel: topology.LevelSocket, Workload: wl, Topology: smallTopology()})
		res, err := e.Run(RunOptions{Transactions: 400, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(0)
	multi := run(80)
	if local.MultiSite != 0 {
		t.Errorf("0%% run reported %d multi-site transactions", local.MultiSite)
	}
	if multi.MultiSite == 0 {
		t.Error("80% run reported no multi-site transactions")
	}
	if multi.TimePerTransaction(vclock.Communication) <= local.TimePerTransaction(vclock.Communication) {
		t.Error("communication time per transaction should grow with multi-site percentage")
	}
	if multi.TimePerTransaction(vclock.Logging) <= local.TimePerTransaction(vclock.Logging) {
		t.Error("logging time per transaction should grow with multi-site percentage")
	}
}

func TestMemoryAllocationPolicies(t *testing.T) {
	wl := workload.ReadHundred(20000)
	run := func(policy numa.AllocPolicy) *Result {
		e := MustNew(Config{
			Design:      SharedNothing,
			IslandLevel: topology.LevelSocket,
			Workload:    wl,
			Topology:    smallTopology(),
			AllocPolicy: policy,
		})
		res, err := e.Run(RunOptions{Transactions: 200, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(numa.AllocLocal)
	remote := run(numa.AllocRemote)
	if remote.ThroughputTPS >= local.ThroughputTPS {
		t.Errorf("remote allocation (%f) should be slower than local (%f)", remote.ThroughputTPS, local.ThroughputTPS)
	}
	// The drop is moderate (the paper reports 3-7%): remote must stay within
	// 75% of local, i.e. the penalty is visible but not catastrophic.
	if remote.ThroughputTPS < 0.75*local.ThroughputTPS {
		t.Errorf("remote allocation penalty too large: %f vs %f", remote.ThroughputTPS, local.ThroughputTPS)
	}
	if local.QPIToIMCRatio >= remote.QPIToIMCRatio {
		t.Errorf("interconnect traffic ratio should grow with remote allocation: %f vs %f",
			local.QPIToIMCRatio, remote.QPIToIMCRatio)
	}
	if len(local.PerSocket) != 4 {
		t.Errorf("PerSocket has %d entries", len(local.PerSocket))
	}
}

func TestATraPosBeatsPLPOnTATP(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
	plp := runDesign(t, PLP, wl, 800)
	e := MustNew(Config{
		Design:    ATraPos,
		Workload:  wl,
		Topology:  smallTopology(),
		Placement: DerivePlacement(wl, smallTopology(), true),
	})
	res, err := e.Run(RunOptions{Transactions: 800, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputTPS <= plp.ThroughputTPS {
		t.Errorf("ATraPos (%f) should beat PLP (%f) on the TATP mix", res.ThroughputTPS, plp.ThroughputTPS)
	}
}

func TestDerivePlacement(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 4000})
	top := smallTopology()
	aware := DerivePlacement(wl, top, true)
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	// One partition per core in total (no oversaturation).
	for core, n := range aware.PartitionsPerCore() {
		if n > 2 {
			t.Errorf("core %d owns %d partitions", core, n)
		}
	}
	// The Subscriber table dominates the TATP mix and should get the largest share.
	if aware.Tables["Subscriber"].NumPartitions() < aware.Tables["CallForwarding"].NumPartitions() {
		t.Error("Subscriber should receive at least as many cores as CallForwarding")
	}
}

func TestMonitoringOverheadIsSmall(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 4000, Mix: map[string]float64{workload.TATPGetSubData: 1}})
	top := smallTopology()
	place := DerivePlacement(wl, top, true)
	run := func(monitoring bool) float64 {
		e := MustNew(Config{
			Design:     ATraPos,
			Workload:   wl,
			Topology:   top,
			Placement:  place,
			Monitoring: monitoring,
		})
		res, err := e.Run(RunOptions{Transactions: 800, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputTPS
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Logf("monitoring run (%f) unexpectedly faster than non-monitored (%f); acceptable within noise", with, without)
	}
	overhead := (without - with) / without
	if overhead > 0.10 {
		t.Errorf("monitoring overhead %.1f%% exceeds 10%%", overhead*100)
	}
}

func TestAdaptiveRepartitioningTriggersOnSkew(t *testing.T) {
	// GetSubData with a sudden skew: the adaptive engine must detect the
	// change and repartition at least once.
	wl, err := workload.TATP(workload.TATPOptions{
		Subscribers: 4000,
		Mix:         map[string]float64{workload.TATPGetSubData: 1},
		Skew:        workload.Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: workload.Seconds(0.003)},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := smallTopology()
	place := DerivePlacement(wl, top, true)

	adaptiveEngine := MustNew(Config{
		Design:           ATraPos,
		Workload:         wl,
		Topology:         top,
		Placement:        place,
		Adaptive:         true,
		AdaptiveInterval: coreIntervalForTests(),
	})
	res, err := adaptiveEngine.Run(RunOptions{Transactions: 12000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repartitions == 0 {
		t.Error("adaptive engine never repartitioned under skew")
	}
	if res.RepartitionTime <= 0 {
		t.Error("repartitioning should have a recorded cost")
	}
}

func TestAdaptiveSocketFailure(t *testing.T) {
	wl := workload.MustTATP(workload.TATPOptions{Subscribers: 4000, Mix: map[string]float64{workload.TATPGetSubData: 1}})
	top := smallTopology()
	e := MustNew(Config{
		Design:           ATraPos,
		Workload:         wl,
		Topology:         top,
		Placement:        DerivePlacement(wl, top, true),
		Adaptive:         true,
		AdaptiveInterval: coreIntervalForTests(),
	})
	if err := e.FailSocket(3); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(RunOptions{Transactions: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 2900 {
		t.Errorf("committed %d of 3000 after socket failure", res.Committed)
	}
	// After adaptation no partition should be owned by a core of the failed socket.
	if res.Repartitions > 0 {
		p := e.Placement()
		for name, tp := range p.Tables {
			for i, c := range tp.Cores {
				if top.SocketOf(c) == 3 {
					t.Errorf("table %s partition %d still owned by failed socket (core %d)", name, i, c)
				}
			}
		}
	}
	if err := e.cfg.Topology.RestoreSocket(3); err != nil {
		t.Fatal(err)
	}
}

func TestFailSocketUnknown(t *testing.T) {
	e := MustNew(Config{Design: ATraPos, Workload: workload.SingleRowRead(100), Topology: smallTopology()})
	if err := e.FailSocket(topology.SocketID(99)); err == nil {
		t.Error("failing an unknown socket should error")
	}
}

func TestDurationDrivenRunProducesSeries(t *testing.T) {
	wl := workload.SingleRowRead(4000)
	e := MustNew(Config{Design: ATraPos, Workload: wl, Topology: smallTopology()})
	res, err := e.Run(RunOptions{
		Duration:     workload.Seconds(0.02),
		Transactions: 100000,
		Seed:         1,
		SampleWindow: workload.Seconds(0.005),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime < workload.Seconds(0.02) {
		t.Errorf("run stopped at virtual time %v before the requested duration", res.VirtualTime.Duration())
	}
	if len(res.Series) < 2 {
		t.Errorf("expected a multi-sample series, got %d samples", len(res.Series))
	}
}

func TestOversaturationPenalty(t *testing.T) {
	if saturationFactor(0.8, 0) != 1 || saturationFactor(0.8, 1) != 1 {
		t.Error("one partition per core should have no penalty")
	}
	if saturationFactor(0.8, 2) != 1.8 {
		t.Errorf("factor for 2 partitions = %f", saturationFactor(0.8, 2))
	}
	// A two-table workload placed naïvely (two partitions per core) is slower
	// than the same workload with one partition per core in total.
	wl := workload.TwoTableSimple(4000)
	top := smallTopology()
	naive := MustNew(Config{Design: ATraPos, Workload: wl, Topology: top})
	spread := MustNew(Config{Design: ATraPos, Workload: wl, Topology: top, Placement: DerivePlacement(wl, top, true)})
	naiveRes, err := naive.Run(RunOptions{Transactions: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spreadRes, err := spread.Run(RunOptions{Transactions: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if spreadRes.ThroughputTPS <= naiveRes.ThroughputTPS {
		t.Errorf("one-partition-per-core placement (%f) should beat the oversaturated naive placement (%f)",
			spreadRes.ThroughputTPS, naiveRes.ThroughputTPS)
	}
}

// coreIntervalForTests shrinks the monitoring interval so adaptive behaviour
// shows up within short test runs.
func coreIntervalForTests() core.IntervalConfig {
	return core.IntervalConfig{
		Initial: vclock.Nanos(time.Millisecond),
		Max:     vclock.Nanos(8 * time.Millisecond),
	}
}
