package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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
	if tr.Ring() != nil {
		t.Fatal("nil tracer returned a ring")
	}
	if tr.Dropped() != 0 || tr.DropAccounting() != "" {
		t.Fatal("nil tracer reported drops")
	}
	if err := ValidateChromeTrace(tr.ExportChromeTrace()); err != nil {
		t.Fatalf("nil tracer's export fails validation: %v", err)
	}
}

// TestTracerRemnantsSumToRing: the frozen benchmark sums Worker(i), Island(i),
// Device(i) and Planner() attempts; only Worker(0) is a ring, so the sum is
// the ring's attempts.
func TestTracerRemnantsSumToRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Ring().Record(Span{Kind: KindTxn})
	}
	if tr.Worker(0) != tr.Ring() {
		t.Fatal("Worker(0) is not the tracer's ring")
	}
	var attempts int64
	for i := 0; i < 4; i++ {
		attempts += tr.Worker(i).Attempts() + tr.Island(i).Attempts() + tr.Device(i).Attempts()
	}
	attempts += tr.Planner().Attempts()
	if attempts != 3 {
		t.Fatalf("remnant attempts sum to %d, want 3", attempts)
	}
	var nilTracer *Tracer
	if nilTracer.Worker(0) != nil {
		t.Fatal("nil tracer's Worker(0) is a ring")
	}
}

func TestTracerDropAccounting(t *testing.T) {
	tr := NewTracer(2)
	tr.Ring().Record(Span{Kind: KindTxn})
	for i := 0; i < 5; i++ {
		tr.Ring().Record(Span{Kind: KindPhysFlush})
	}
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if v := tr.DropAccounting(); v != "" {
		t.Fatalf("DropAccounting violated: %s", v)
	}
}

func TestExportChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(16)
		r := tr.Ring()
		// Recorded out of track order: the export sorts them.
		r.Record(Span{Start: 2000, Kind: KindPlannerSeal})
		r.Record(Span{Start: 1600, Dur: 50, Kind: KindDeviceWait, Site: 1})
		r.Record(Span{Start: 1500, Dur: 100, Kind: KindPhysFlush, Site: 0, Arg: 4096})
		r.Record(Span{Start: 1500, Kind: KindCoalesceFold, Site: 2, Arg: 7})
		r.Record(Span{Start: 1200, Dur: 300, Kind: KindLockAcquire, Core: 3})
		r.Record(Span{Start: 1000, Dur: 500, Kind: KindTxn, Core: 3, Class: "mixed"})
		r.Record(Span{Start: 2100, Dur: 40, Kind: KindPlannerMigrate, Core: 5})
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
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Pid, Tid int
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	// Tracks come from the kind, and only occupied tracks are named.
	var got []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			got = append(got, ev.Args.Name)
		} else {
			got = append(got, fmt.Sprintf("%s@%d/%d", ev.Name, ev.Pid, ev.Tid))
		}
	}
	want := []string{
		"cores", "core 3", "islands", "island 0", "island 2", "devices", "device 1", "planner", "granularity planner",
		"txn@0/3", "lock-acquire@0/3", "phys-flush@1/0", "coalesce-fold@1/2", "device-wait@2/1",
		"planner-seal@3/0", "planner-migrate@3/0", "planner-decision@3/0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported events\n got %v\nwant %v", got, want)
	}
	if !strings.Contains(string(a), "\"locality\"") {
		t.Fatal("exported trace is missing the decision's score breakdown")
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
