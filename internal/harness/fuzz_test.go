package harness

import (
	"strings"
	"testing"
)

// TestFuzzSmoke runs a bounded, fixed-seed slice of the scenario fuzzer: every
// composed scenario must hold all standing invariants. The full 25-scenario
// smoke runs via `make fuzz-smoke`; this keeps a smaller slice inside plain
// `go test`.
func TestFuzzSmoke(t *testing.T) {
	rep, err := FuzzScenarios(FuzzOptions{Scenarios: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 6 {
		t.Errorf("ran %d scenarios, want 6", rep.Scenarios)
	}
	for _, f := range rep.Failures {
		t.Errorf("scenario %d (seed %d) %s: %s\n  reproduce: %s", f.Scenario, f.Seed, f.Descr, f.Err, f.Reproduce)
	}
}

// TestFuzzRejectsPinnedProfile: the fuzzer composes its own machines, so a
// scale pinned to a profile is an error instead of a profile silently ignored.
func TestFuzzRejectsPinnedProfile(t *testing.T) {
	s := QuickScale()
	s.Profile = "chiplet-2s4d"
	if _, err := FuzzScenarios(FuzzOptions{Scenarios: 1, Scale: s}); err == nil {
		t.Error("a fuzz run on a pinned profile should fail")
	}
}

// TestBuildScenarioDeterministic: the seed fully determines the scenario, so
// the reproducer line in a failure is the whole recipe.
func TestBuildScenarioDeterministic(t *testing.T) {
	s := QuickScale()
	a, err := buildScenario(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildScenario(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different scenarios:\n  %s\n  %s", a, b)
	}
	c, err := buildScenario(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Errorf("different seeds produced the same scenario: %s", a)
	}
}

// TestRandomFaultScheduleAlwaysLegal: the generator mirrors the validator's
// state machine, so schedules construct for any seed — including machines
// with no devices, where only socket events may appear.
func TestRandomFaultScheduleAlwaysLegal(t *testing.T) {
	s := QuickScale()
	for seed := int64(0); seed < 200; seed++ {
		sc, err := buildScenario(s, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.layout == "" && strings.Contains(sc.sched.String(), "device") {
			t.Errorf("seed %d scheduled a device fault with no device layout: %s", seed, sc.sched)
		}
	}
}
