package main

import (
	"fmt"
	"io"
	"sort"
)

// print writes the human-readable end-to-end report of one workload: host
// fingerprint, run shape, disturbance, every metric with unit, direction and
// regression bound, the segment-time distribution, and the failed checks.
func (r *report) print(w io.Writer) {
	mode := "priced"
	if r.spec.executed {
		mode = "executed"
		if r.host.oversubscribed() {
			mode = "executed, oversubscribed: 2 pinned executors on fewer than 2 processors"
		}
	}
	fmt.Fprintf(w, "workload %s (%s) seed %d: %d passes x %d segments x %d txns\n",
		r.spec.name, mode, r.seed, len(r.passes), len(r.passes[0].segNS), r.segTxns)
	fmt.Fprintln(w, " ", r.host)
	fmt.Fprintln(w, " ", r.disturbance)
	m := r.endToEndMetrics()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %16.6g %-7s (%s is better, bound %.0f%%)\n",
			d.name, m[d.name].Value, d.unit, d.better, 100*d.bound)
	}
	perTxn := make([]float64, len(r.segNS))
	for i, ns := range r.segNS {
		perTxn[i] = ns / float64(r.segTxns)
	}
	tail, pct := tailValue(perTxn)
	tailName := "max"
	if pct > 0 {
		tailName = fmt.Sprintf("p%d", pct)
	}
	fmt.Fprintf(w, "  host ns/txn: median %.1f, %s %.1f over %d segments; %.3f allocs/txn; %d of %d txns failed\n",
		median(perTxn), tailName, tail, len(perTxn), r.passes[0].allocsPerTxn, r.failed, r.attempted)
	for i, p := range r.passes {
		fmt.Fprintf(w, "  pass %d: setup %.3f s, host ns/txn per segment", i, p.setupS)
		for _, ns := range p.segNS {
			fmt.Fprintf(w, " %.0f", ns/float64(r.segTxns))
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
}

// printMetrics writes a metric map sorted by name (the traced run's report).
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
