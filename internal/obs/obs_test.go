package obs

import (
	"bytes"
	"strings"
	"testing"

	"atrapos/internal/vclock"
)

func TestRingOverflowAccounting(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Start: 1, Dur: 1, Kind: KindTxn})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Attempts(); got != 10 {
		t.Fatalf("Attempts = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	r.Reset()
	if r.Len() != 0 || r.Attempts() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset did not clear the ring: len=%d attempts=%d dropped=%d",
			r.Len(), r.Attempts(), r.Dropped())
	}
	if got := r.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d after Reset, want 4", got)
	}
}

func TestNilRingAndTracerAreNoOps(t *testing.T) {
	var r *Ring
	r.Record(Span{})
	if r.Len() != 0 || r.Attempts() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatal("nil ring reported nonzero state")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil ring snapshot is not nil")
	}
	var tr *Tracer
	tr.RecordDecision(Decision{})
	tr.RecordSample(Sample{})
	tr.Reset()
	if tr.Worker(0) != nil || tr.Island(0) != nil || tr.BindIsland(0) != nil || tr.Device(0) != nil || tr.Planner() != nil {
		t.Fatal("nil tracer returned a ring")
	}
	if tr.Dropped() != 0 || tr.DropAccounting() != "" {
		t.Fatal("nil tracer reported drops")
	}
	if NewTracer(4, 1, 0, 1).Worker(1) != nil {
		t.Fatal("a tracer has one worker ring; Worker(1) must be nil")
	}
	if len(tr.ExportChromeTrace()) == 0 {
		t.Fatal("nil tracer exported an empty document")
	}
}

// TestIslandRingsAllocateOnBind: an island slot no producer has bound holds
// no ring — Island reads nil, which records nothing and counts 0 attempts —
// and BindIsland allocates it once, at the tracer's ring capacity.
func TestIslandRingsAllocateOnBind(t *testing.T) {
	tr := NewTracer(4, 4, 0, 8)
	if tr.Island(2) != nil {
		t.Fatal("an unbound island slot has a ring")
	}
	r := tr.BindIsland(2)
	if r == nil || r.Capacity() != 8 {
		t.Fatalf("BindIsland(2) = %v, want a ring of capacity 8", r)
	}
	if tr.BindIsland(2) != r || tr.Island(2) != r {
		t.Fatal("a bound island slot returned a different ring")
	}
	if tr.Island(1) != nil || tr.BindIsland(4) != nil {
		t.Fatal("binding slot 2 touched another slot, or slot 4 exists")
	}
}

func TestTracerDropAccounting(t *testing.T) {
	tr := NewTracer(2, 1, 1, 2)
	tr.Worker(0).Record(Span{Kind: KindTxn})
	for i := 0; i < 5; i++ {
		tr.BindIsland(0).Record(Span{Kind: KindPhysFlush})
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	if v := tr.DropAccounting(); v != "" {
		t.Fatalf("DropAccounting violated: %s", v)
	}
}

func TestExportChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(2, 2, 1, 16)
		tr.Worker(0).Record(Span{Start: 1000, Dur: 500, Kind: KindTxn, Core: 0, Class: "mixed"})
		tr.Worker(0).Record(Span{Start: 1200, Dur: 300, Kind: KindLockAcquire, Core: 1})
		tr.BindIsland(0).Record(Span{Start: 1500, Dur: 100, Kind: KindPhysFlush, Site: 0, Arg: 4096})
		tr.BindIsland(1).Record(Span{Start: 1500, Kind: KindCoalesceFold, Site: 1, Arg: 7})
		tr.Device(0).Record(Span{Start: 1600, Dur: 50, Kind: KindDeviceWait})
		tr.Planner().Record(Span{Start: 2000, Kind: KindPlannerSeal})
		tr.RecordDecision(Decision{At: 2000, Current: "socket", Best: "core", Verdict: "change",
			Candidates: []LevelScore{{Level: "core", Total: 1, Locality: 1}}})
		tr.RecordSample(Sample{At: 2000, Level: "socket", TPS: 10,
			Clocks: vclock.Spread{Min: 1000, Mean: 1500, Max: 2000}, IslandTPS: []float64{5, 5}})
		return tr
	}
	a, b := build().ExportChromeTrace(), build().ExportChromeTrace()
	if !bytes.Equal(a, b) {
		t.Fatal("identical tracers exported different bytes")
	}
	if err := ValidateChromeTrace(a); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	for _, want := range []string{"planner-decision", "phys-flush", "coalesce-fold", "device-wait", "\"locality\""} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("exported trace is missing %q", want)
		}
	}
	csvA, csvB := build().ExportMetricsCSV(), build().ExportMetricsCSV()
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("identical tracers exported different CSV bytes")
	}
	if err := ValidateMetricsCSV(csvA); err != nil {
		t.Fatalf("exported CSV fails validation: %v", err)
	}
	if !strings.Contains(string(csvA), ",1000,1500,2000,") {
		t.Fatalf("exported CSV is missing the clock spread: %s", csvA)
	}
}

func TestValidateChromeTraceRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"no array":       `{"other":1}`,
		"nameless event": `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":0,"tid":0}]}`,
		"unknown phase":  `{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		"missing dur":    `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}`,
		"missing tid":    `{"traceEvents":[{"name":"x","ph":"i","ts":1,"pid":0}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want failure", name)
		}
	}
}

func TestValidateMetricsCSVRejectsBadDocuments(t *testing.T) {
	good := MetricsCSVHeader + "\n100,0,socket,1.000000,1,0,0.000000,1.000000,0.000000,90,95,100,1.000000\n"
	if err := ValidateMetricsCSV([]byte(good)); err != nil {
		t.Fatalf("good CSV rejected: %v", err)
	}
	cases := map[string]string{
		"bad header":      "nope\n",
		"short row":       MetricsCSVHeader + "\n100,0,socket\n",
		"bad at_ns":       MetricsCSVHeader + "\nx,0,socket,1,1,0,0,1,0,0,0,0,1\n",
		"time regression": MetricsCSVHeader + "\n200,0,s,1,1,0,0,1,0,0,0,0,1\n100,0,s,1,1,0,0,1,0,0,0,0,1\n",
	}
	for name, doc := range cases {
		if err := ValidateMetricsCSV([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want failure", name)
		}
	}
}
