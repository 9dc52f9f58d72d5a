package atrapos

import (
	"strings"
	"testing"

	"atrapos/internal/engine"
	"atrapos/internal/wal"
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
		if err := sys.engine.Placement().Validate(); err != nil {
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
	top := smallTop(t)
	sys, err := Open(Options{Design: DesignATraPos, Workload: wl, Topology: top, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	machine := FaultMachine{Sockets: top.Sockets()}
	if _, err := NewFaultSchedule(machine, FailSocketFault(1, 99)); err == nil {
		t.Error("failing an unknown socket should error")
	}
	faults, err := NewFaultSchedule(machine, FailSocketFault(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(RunOptions{Transactions: 500, Seed: 2, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 450 {
		t.Errorf("committed %d of 500", res.Committed)
	}
}

// TestFaultSchedules runs README's "Fault schedules" snippet, one second of it
// compressed into one virtual millisecond, on a shared-nothing system whose
// island logs sit on a built-in device layout, then a degrade and a crash
// drill. Together the two schedules use every public fault constructor.
func TestFaultSchedules(t *testing.T) {
	const ms VirtualTime = 1_000_000
	layout := LogDeviceLayouts()[0]
	top, err := NewTopology(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(Options{
		Design:           DesignSharedNothing,
		DeviceLayout:     layout.Name,
		Workload:         MultisiteUpdate(2000, 10),
		Topology:         top,
		Adaptive:         true,
		AdaptiveInterval: IntervalConfig{Initial: ms, Max: 8 * ms},
	})
	if err != nil {
		t.Fatal(err)
	}
	machine := FaultMachine{Sockets: top.Sockets(), Devices: sys.engine.Devices().NumDevices()}
	if machine.Devices < 2 {
		t.Fatalf("layout %s provisions %d devices on two sockets, want at least 2", layout.Name, machine.Devices)
	}
	if _, err := NewFaultSchedule(machine, FailDeviceFault(ms, machine.Devices)); err == nil {
		t.Error("failing a device the machine does not have should error")
	}
	sched, err := NewFaultSchedule(machine,
		FailDeviceFault(10*ms, 0),    // island logs re-home
		FailSocketFault(30*ms, 1),    // planner contracts
		RestoreSocketFault(40*ms, 1), // ... and re-expands
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(RunOptions{Duration: 60 * ms, Seed: 1, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || len(res.LevelChanges) == 0 {
		t.Errorf("the fault schedule run committed %d transactions over %d re-wirings, want both positive", res.Committed, len(res.LevelChanges))
	}
	if !sys.engine.WiringConverged() {
		t.Error("the wiring did not converge on the restored machine and the surviving devices")
	}

	// Options has no log-retention setting and the default log keeps a
	// bounded ring, which a crash drill refuses (recovery from it would be
	// partial), so the drill runs on an engine built with full retention.
	lc := wal.DefaultConfig()
	lc.Keep = 0
	e, err := engine.New(engine.Config{
		Design:       engine.SharedNothing,
		DeviceLayout: layout.Name,
		Workload:     MultisiteUpdate(2000, 10),
		Topology:     smallTop(t),
		LogConfig:    &lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	drillMachine := FaultMachine{Sockets: e.Topology().Sockets(), Devices: e.Devices().NumDevices()}
	drill, err := NewFaultSchedule(drillMachine, DegradeDeviceFault(2*ms, 1, 4), CrashAndRecoverFault(5*ms))
	if err != nil {
		t.Fatal(err)
	}
	res, err = (&System{engine: e}).Run(RunOptions{Duration: 10 * ms, Seed: 1, Faults: drill})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Error("the degrade and crash drill run committed nothing")
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
