package atrapos

// This file holds one benchmark per table and figure of the paper's
// evaluation section (plus the ablation benches listed in DESIGN.md). Each
// benchmark regenerates its table through the experiment harness and reports
// headline numbers as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at a reduced scale. Use cmd/atrapos-bench
// to print the full tables, or -scale=paper there for the paper's scale.

import (
	"strconv"
	"strings"
	"testing"

	"atrapos/internal/harness"
)

// benchScale keeps every benchmark iteration to a few hundred milliseconds.
func benchScale() harness.Scale {
	s := harness.QuickScale()
	s.CoresPerSocket = 2
	s.MicroRows = 4000
	s.Subscribers = 4000
	s.Warehouses = 2
	s.CustomersPerDistrict = 40
	s.Items = 1000
	s.Transactions = 1500
	return s
}

func runExperimentBench(b *testing.B, id string, metric func(*harness.Table) map[string]float64) {
	b.Helper()
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *harness.Table
	for i := 0; i < b.N; i++ {
		t, err := exp.Run(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && metric != nil {
		for name, v := range metric(last) {
			b.ReportMetric(v, name)
		}
	}
	if last != nil && testing.Verbose() {
		b.Log("\n" + last.String())
	}
}

// parse helpers for the rendered tables.

func cellTPS(cell string) float64 {
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	switch {
	case strings.Contains(cell, "MTPS"):
		return v * 1e6
	case strings.Contains(cell, "KTPS"):
		return v * 1e3
	default:
		return v
	}
}

func cellFloat(cell string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimRight(cell, "x%"), 64)
	return v
}

// BenchmarkFig01_IPC regenerates Figure 1 (useful-work fraction proxy for IPC).
func BenchmarkFig01_IPC(b *testing.B) {
	runExperimentBench(b, "fig1", func(t *harness.Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"sn_useful_frac":      cellFloat(last[1]),
			"central_useful_frac": cellFloat(last[2]),
			"plp_useful_frac":     cellFloat(last[3]),
		}
	})
}

// BenchmarkFig02_PartitionableScaling regenerates Figure 2.
func BenchmarkFig02_PartitionableScaling(b *testing.B) {
	runExperimentBench(b, "fig2", func(t *harness.Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"extremeSN_tps":   cellTPS(last[1]),
			"centralized_tps": cellTPS(last[2]),
			"plp_tps":         cellTPS(last[3]),
		}
	})
}

// BenchmarkFig03_MultisiteThroughput regenerates Figure 3.
func BenchmarkFig03_MultisiteThroughput(b *testing.B) {
	runExperimentBench(b, "fig3", func(t *harness.Table) map[string]float64 {
		return map[string]float64{
			"coarseSN_0pct_tps":   cellTPS(t.Rows[0][2]),
			"coarseSN_100pct_tps": cellTPS(t.Rows[len(t.Rows)-1][2]),
		}
	})
}

// BenchmarkFig04_TimeBreakdown regenerates Figure 4.
func BenchmarkFig04_TimeBreakdown(b *testing.B) {
	runExperimentBench(b, "fig4", func(t *harness.Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"comm_us_per_txn_100pct": cellFloat(last[3]),
			"log_us_per_txn_100pct":  cellFloat(last[5]),
		}
	})
}

// BenchmarkTable1_MemoryPolicies regenerates Table I.
func BenchmarkTable1_MemoryPolicies(b *testing.B) {
	runExperimentBench(b, "table1", func(t *harness.Table) map[string]float64 {
		avg := func(row []string) float64 {
			total, n := 0.0, 0
			for _, c := range row[1 : len(row)-1] {
				if v, err := strconv.ParseFloat(c, 64); err == nil && v > 0 {
					total += v
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return total / float64(n)
		}
		return map[string]float64{
			"local_tps_per_socket":  avg(t.Rows[0]),
			"remote_tps_per_socket": avg(t.Rows[2]),
		}
	})
}

// BenchmarkFig05_ATraPosScaling regenerates Figure 5.
func BenchmarkFig05_ATraPosScaling(b *testing.B) {
	runExperimentBench(b, "fig5", func(t *harness.Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"extremeSN_tps": cellTPS(last[1]),
			"atrapos_tps":   cellTPS(last[3]),
			"plp_tps":       cellTPS(last[4]),
		}
	})
}

// BenchmarkFig06_PartitioningStrategies regenerates Figure 6.
func BenchmarkFig06_PartitioningStrategies(b *testing.B) {
	runExperimentBench(b, "fig6", func(t *harness.Table) map[string]float64 {
		return map[string]float64{
			"centralized_tps": cellTPS(t.Rows[0][1]),
			"hw_aware_tps":    cellTPS(t.Rows[2][1]),
			"atrapos_tps":     cellTPS(t.Rows[4][1]),
		}
	})
}

// BenchmarkFig07_NewOrderFlowGraph regenerates Figure 7 (structural).
func BenchmarkFig07_NewOrderFlowGraph(b *testing.B) {
	runExperimentBench(b, "fig7", func(t *harness.Table) map[string]float64 {
		return map[string]float64{"nodes": float64(len(t.Rows)), "sync_points": float64(len(t.Notes))}
	})
}

// BenchmarkFig08_StandardBenchmarks regenerates Figure 8.
func BenchmarkFig08_StandardBenchmarks(b *testing.B) {
	runExperimentBench(b, "fig8", func(t *harness.Table) map[string]float64 {
		out := map[string]float64{}
		for _, row := range t.Rows {
			key := strings.ReplaceAll(strings.ToLower(row[1]), "-", "_") + "_improvement_x"
			out[key] = cellFloat(row[4])
		}
		return out
	})
}

// BenchmarkTable2_MonitoringOverhead regenerates Table II.
func BenchmarkTable2_MonitoringOverhead(b *testing.B) {
	runExperimentBench(b, "table2", func(t *harness.Table) map[string]float64 {
		worst := 0.0
		for _, row := range t.Rows {
			if v := cellFloat(row[3]); v > worst {
				worst = v
			}
		}
		return map[string]float64{"worst_overhead_pct": worst}
	})
}

// BenchmarkFig09_RepartitioningCost regenerates Figure 9.
func BenchmarkFig09_RepartitioningCost(b *testing.B) {
	runExperimentBench(b, "fig9", func(t *harness.Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"merge_ms_max": cellFloat(last[1]),
			"split_ms_max": cellFloat(last[2]),
		}
	})
}

// seriesMetrics summarizes a static-vs-ATraPos time series table.
func seriesMetrics(t *harness.Table) map[string]float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	// Column 1 is "atrapos", column 2 is "static" (alphabetical order).
	avg := func(col int) float64 {
		total, n := 0.0, 0
		for _, row := range t.Rows {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil && v > 0 {
				total += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	return map[string]float64{"atrapos_avg_tps": avg(1), "static_avg_tps": avg(2)}
}

// BenchmarkFig10_WorkloadChange regenerates Figure 10.
func BenchmarkFig10_WorkloadChange(b *testing.B) { runExperimentBench(b, "fig10", seriesMetrics) }

// BenchmarkFig11_Skew regenerates Figure 11.
func BenchmarkFig11_Skew(b *testing.B) { runExperimentBench(b, "fig11", seriesMetrics) }

// BenchmarkFig12_SocketFailure regenerates Figure 12.
func BenchmarkFig12_SocketFailure(b *testing.B) { runExperimentBench(b, "fig12", seriesMetrics) }

// BenchmarkFig13_FrequentChanges regenerates Figure 13.
func BenchmarkFig13_FrequentChanges(b *testing.B) { runExperimentBench(b, "fig13", seriesMetrics) }

// --- Ablation benches (DESIGN.md section 6) ---

// BenchmarkAblationTxnList compares centralized vs per-socket system state.
func BenchmarkAblationTxnList(b *testing.B) { runExperimentBench(b, "ablation-txnlist", nil) }

// BenchmarkAblationSubPartitions sweeps the monitoring sub-partition granularity.
func BenchmarkAblationSubPartitions(b *testing.B) {
	runExperimentBench(b, "ablation-subparts", nil)
}

// BenchmarkAblationSLI compares speculative lock inheritance on vs off.
func BenchmarkAblationSLI(b *testing.B) { runExperimentBench(b, "ablation-sli", nil) }

// --- Engine micro-benchmarks: per-transaction cost of each design ---

func benchDesign(b *testing.B, d Design) {
	wl := MustTATP(TATPOptions{Subscribers: 4000})
	top, err := NewTopology(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Open(Options{Design: d, Workload: wl, Topology: top})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i += 500 {
		n := 500
		if rem := b.N - i; rem < n {
			n = rem
		}
		res, err := sys.Run(RunOptions{Transactions: n, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed == 0 {
			b.Fatal("no transactions committed")
		}
	}
}

// BenchmarkEngineCentralized measures the simulator's real (wall-clock) cost
// per simulated transaction for the centralized design on TATP.
func BenchmarkEngineCentralized(b *testing.B) { benchDesign(b, DesignCentralized) }

// BenchmarkEnginePLP measures the simulator cost for PLP on TATP.
func BenchmarkEnginePLP(b *testing.B) { benchDesign(b, DesignPLP) }

// BenchmarkEngineATraPos measures the simulator cost for ATraPos on TATP.
func BenchmarkEngineATraPos(b *testing.B) { benchDesign(b, DesignATraPos) }
