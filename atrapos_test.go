package atrapos

import (
	"strings"
	"testing"
)

func smallTop(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without a workload should fail")
	}
	if _, err := NewTopology(0, 1); err == nil {
		t.Error("invalid topology should fail")
	}
	if DefaultTopology().Sockets() != 8 {
		t.Error("default topology should have 8 sockets")
	}
	if err := DefaultCostModel().Validate(); err != nil {
		t.Error(err)
	}
	if DefaultIntervalConfig().History != 5 {
		t.Error("unexpected default interval config")
	}
}

func TestOpenAndRunEveryDesign(t *testing.T) {
	wl := SingleRowRead(2000)
	for _, d := range []Design{DesignCentralized, DesignSharedNothing, DesignPLP, DesignHWAware, DesignATraPos} {
		sys, err := Open(Options{Design: d, Workload: wl, Topology: smallTop(t)})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if sys.Design() != d || sys.Topology() == nil {
			t.Errorf("%v: accessor mismatch", d)
		}
		res, err := sys.Run(RunOptions{Transactions: 300, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Committed == 0 || res.ThroughputTPS <= 0 {
			t.Errorf("%v: empty result", d)
		}
		if err := sys.Placement().Validate(); err != nil {
			t.Errorf("%v: invalid placement: %v", d, err)
		}
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if _, err := TATP(TATPOptions{}); err == nil {
		t.Error("TATP with zero subscribers should fail")
	}
	if _, err := TPCC(TPCCOptions{}); err == nil {
		t.Error("TPCC with zero warehouses should fail")
	}
	if MustTATP(TATPOptions{Subscribers: 100}).Name != "TATP" {
		t.Error("unexpected TATP name")
	}
	if MustTPCC(TPCCOptions{Warehouses: 1, CustomersPerDistrict: 10, Items: 100}).Name != "TPC-C" {
		t.Error("unexpected TPC-C name")
	}
	if len(MultisiteUpdate(100, 50).Tables) != 1 || len(TwoTableSimple(100).Tables) != 2 {
		t.Error("microbenchmark table counts wrong")
	}
	if ReadHundred(100).Name == "" {
		t.Error("ReadHundred has no name")
	}
	if Seconds(2) != 2_000_000_000 {
		t.Error("Seconds conversion wrong")
	}
}

func TestAdaptiveSystemAndFailSocket(t *testing.T) {
	wl := MustTATP(TATPOptions{Subscribers: 2000, Mix: map[string]float64{"GetSubData": 1}})
	sys, err := Open(Options{Design: DesignATraPos, Workload: wl, Topology: smallTop(t), Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FailSocket(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.FailSocket(99); err == nil {
		t.Error("failing an unknown socket should error")
	}
	res, err := sys.Run(RunOptions{Transactions: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 450 {
		t.Errorf("committed %d of 500", res.Committed)
	}
}

func TestWorkloadAwarePlacementToggle(t *testing.T) {
	wl := TwoTableSimple(2000)
	off := false
	naive, err := Open(Options{Design: DesignATraPos, Workload: wl, Topology: smallTop(t), WorkloadAwarePlacement: &off})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Open(Options{Design: DesignATraPos, Workload: wl, Topology: smallTop(t)})
	if err != nil {
		t.Fatal(err)
	}
	// The naive placement has one partition of each table per core (16
	// partitions on the 8-core machine); the workload-aware placement has
	// roughly one partition per core in total.
	if naive.Placement().TotalPartitions() <= aware.Placement().TotalPartitions() {
		t.Errorf("naive placement should have more partitions: %d vs %d",
			naive.Placement().TotalPartitions(), aware.Placement().TotalPartitions())
	}
}

func TestExperimentsAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := RunExperiment("nope", QuickScale()); err == nil {
		t.Error("unknown experiment should fail")
	}
	scale := QuickScale()
	scale.MicroRows = 2000
	scale.Transactions = 300
	scale.CoresPerSocket = 2
	tbl, err := RunExperiment("fig7", scale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "NewOrder") {
		t.Error("fig7 table should mention NewOrder")
	}
	tbl, err = RunExperiment("fig6", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Errorf("fig6 has %d rows", len(tbl.Rows))
	}
	if PaperScale().Subscribers != 800_000 {
		t.Error("paper scale should use 800K subscribers")
	}
}
