package main

// metricDef is one entry of the metric catalogue. BENCHMARK.json repeats the
// catalogue for the driver; TestBenchmarkJSONMatchesCatalogue keeps the two
// identical.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change counts as a regression; 0 for per-layer
	// metrics, which have none.
	bound float64
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// endToEnd lists the end-to-end metrics. Bounds are sized from the measured
// run-to-run spread (README.md, "Sizing and noise"): at least three times the
// interquartile spread of ten runs with ten different seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_txn_per_s", "txn/s", "higher", 0.25},
	{"virtual_tps", "txn/vs", "higher", 0.15},
	{"log_bytes_per_txn", "B", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.05},
}
