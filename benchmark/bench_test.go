package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{9, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tailValue(xs); pct != 75 || v != 29.25 {
		t.Errorf("tailValue(0..39) = %v at p%d, want 29.25 at p75", v, pct)
	}
	if v, pct := tailValue(xs[:5]); pct != 0 || v != 4 {
		t.Errorf("tailValue(0..4) = %v at p%d, want the maximum 4 at p0", v, pct)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); got != 2.0/3 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "block", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{Name: "b", ID: 3, Parent: 1, StartNS: 20, EndNS: 50}, // overlaps a: counted once
		{Name: "c", ID: 4, Parent: 1, StartNS: 60, EndNS: 70},
		{Name: "d", ID: 5, Parent: 1, StartNS: 90, EndNS: 120}, // sticks out: clipped to the parent
		{Name: "grandchild", ID: 6, Parent: 2, StartNS: 12, EndNS: 18},
		{Name: "other root", ID: 7, StartNS: 0, EndNS: 100},
	}
	if got := selfNS(spans, 1); got != 40 {
		t.Errorf("self time of the block = %d, want 100 - (40 + 10 + 10) = 40", got)
	}
	if got := selfNS(spans, 2); got != 14 {
		t.Errorf("self time of a = %d, want 20 - 6 = 14", got)
	}
	if got := selfNS(spans, 7); got != 100 {
		t.Errorf("self time of a childless span = %d, want its duration 100", got)
	}
}

func TestRecorderAndTraceShape(t *testing.T) {
	rec := newRecorder(8)
	block := rec.begin("block", 0, "w/block-0")
	layer := rec.begin("lock", block, "w/block-0")
	rec.end(layer, 7)
	rec.end(block, 3)
	rec.add("lock.acquire", layer, "w/block-0", rec.spans[layer-1].StartNS, 5, 6)
	if rec.spans[1].Parent != block || rec.spans[1].Calls != 7 || rec.spans[0].dur() < rec.spans[1].dur() {
		t.Fatalf("recorder kept %+v", rec.spans)
	}
	data, err := chromeTrace(rec.spans)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  int      `json:"pid"`
			TID  int      `json:"tid"`
			Args struct {
				ID     int    `json:"id"`
				Parent int    `json:"parent"`
				Trace  string `json:"trace"`
				Calls  int64  `json:"calls"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(f.TraceEvents))
	}
	for i, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.TS == nil || ev.Dur == nil || ev.PID != 1 || ev.Args.ID != i+1 || ev.Args.Trace != "w/block-0" {
			t.Errorf("event %d is not a complete event of the span: %+v", i, ev)
		}
	}
	if ev := f.TraceEvents[2]; ev.Name != "lock.acquire" || ev.Args.Parent != layer || ev.Args.Calls != 6 || ev.TID != 3 {
		t.Errorf("phase child rendered as %+v", ev)
	}
}

// benchmarkJSON is the BENCHMARK.json the catalogue stands for.
func benchmarkJSON(t *testing.T) []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, s := range specs() {
		doc.Workloads = append(doc.Workloads, workloadJSON{s.name, s.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want := benchmarkJSON(t)
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in catalog.go, metrics.go and workloads.go; run go test -run BenchmarkJSON -update")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
}

// smokeSize runs every workload at about 1/100 of the benchmark's size: small
// enough for go test -short, large enough that every layer is called — so a
// later change to a layer signature the benchmark uses fails here, loudly.
var smokeSize = sizing{rows: rows / 100, segScale: 0.01, segments: 2, minPasses: 2}

func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, s := range specs() {
		rep, err := runEndToEnd(s, smokeSize, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(rep.problems) > 0 || rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d failed, problems %v", s.name, rep.failed, rep.attempted, rep.problems)
		}
		if len(rep.passes) != smokeSize.minPasses {
			t.Errorf("%s: %d passes on a zero time budget, want the minimum %d", s.name, len(rep.passes), smokeSize.minPasses)
		}
		m := rep.endToEndMetrics()
		for _, d := range endToEnd {
			if v, ok := m[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive number of %s", s.name, d.name, v, d.unit)
			}
		}
		if len(m) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, catalogue has %d", s.name, len(m), len(endToEnd))
		}

		tr, err := runTraced(s, smokeSize, tracedSizing{blocks: planEvery, perBlock: 100, segments: 1}, 7, out)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		if len(tr.problems) > 0 {
			t.Errorf("%s traced: %v", s.name, tr.problems)
		}
		for _, d := range perLayer {
			v, ok := tr.metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", s.name, d.name, v, d.unit)
			}
			// Every host-time metric is measured on every workload.
			if d.unit == "ns" && d.name != "engine.glue_ns_per_txn" && d.name != "wal.coalesce_overhead_ns_per_txn" && !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a measured time", s.name, d.name, v.Value)
			}
		}
		if len(tr.metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, catalogue has %d", s.name, len(tr.metrics), len(perLayer))
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f traceFile
		if err := json.Unmarshal(data, &f); err != nil || len(f.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not hold trace events: %v", s.name, err)
		}
		if st, err := os.Stat(filepath.Join(out, "cpu-"+s.name+".pprof")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no CPU profile written: %v", s.name, err)
		}
	}
}

func TestTracedSizeFor(t *testing.T) {
	if got := tracedSizeFor(15 * time.Second); got != (tracedSizing{blocks: 32, perBlock: 2000, segments: 4}) {
		t.Errorf("at the benchmark's run length the traced run is %+v, want 32 x 2000 and 4 segments", got)
	}
	if got := tracedSizeFor(time.Second); got.blocks%planEvery != 0 || got.segments < 1 {
		t.Errorf("a one-second traced run is %+v: the adaptive pipeline never runs", got)
	}
}
