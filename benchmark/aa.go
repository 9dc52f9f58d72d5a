package main

import (
	"fmt"
	"os"
	"time"
)

// runAA is the A/A mode: the end-to-end set twice in one invocation — every
// workload once, then every workload again, so the two runs of a workload are
// minutes apart like two separate invocations would be — and, per (metric,
// workload), both values, how much worse the second is, and the bound. Any
// breach, like any failed output check, is an error.
func runAA(seed int64, budget time.Duration) error {
	list := specs()
	sets := [2][]map[string]metric{}
	for set := range sets {
		for _, s := range list {
			rep, err := runEndToEnd(s, fullSize, seed, budget)
			if err != nil {
				return err
			}
			rep.print(os.Stdout)
			if len(rep.problems) > 0 {
				return fmt.Errorf("%s: output checks failed", s.name)
			}
			sets[set] = append(sets[set], rep.endToEndMetrics())
		}
	}
	fmt.Printf("\n%-16s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	breaches := 0
	for i, s := range list {
		for _, d := range endToEnd {
			a, b := sets[0][i][d.name].Value, sets[1][i][d.name].Value
			worse := worseBy(d, a, b)
			verdict := ""
			if worse > d.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", s.name, d.name, a, b, 100*worse, 100*d.bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d (metric, workload) pairs differ by more than their bound on identical code", breaches)
	}
	return nil
}

// worseBy is by what share of the first value the second is worse, in the
// metric's own direction (negative when it is better).
func worseBy(d metricDef, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	if d.better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}
