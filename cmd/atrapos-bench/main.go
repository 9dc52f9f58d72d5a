// Command atrapos-bench reproduces the tables and figures of the ATraPos
// paper's evaluation section.
//
// Usage:
//
//	atrapos-bench -list
//	atrapos-bench -experiment fig2
//	atrapos-bench -experiment all -scale quick
//	atrapos-bench -experiment fig8 -scale paper
//
// The quick scale (default) runs every experiment on a simulated 4-socket
// machine with small datasets in seconds; the paper scale uses the 8-socket,
// 80-core configuration and the paper's dataset sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"atrapos"
)

// runTraced executes the traced adaptive-drift scenario and writes the trace
// and metrics documents. RunTracedDrift validates both documents itself
// (Chrome-trace schema, CSV header and row shape), so a zero exit means the
// files are well-formed.
func runTraced(scale atrapos.Scale, tracePath, metricsPath string) error {
	start := time.Now()
	res, err := atrapos.RunTracedDrift(scale, tracePath, metricsPath)
	if err != nil {
		return err
	}
	fmt.Printf("traced drift: profile=%s start=%s final=%s committed=%d decisions=%d level_changes=%d dropped_spans=%d (%v)\n",
		res.Trajectory.Profile, res.Trajectory.StartLevel, res.Trajectory.FinalLevel,
		res.Trajectory.Committed, res.Decisions, len(res.Trajectory.Changes), res.DroppedSpans,
		time.Since(start).Round(time.Millisecond))
	if tracePath != "" {
		fmt.Printf("trace:   %s (%d bytes, load at https://ui.perfetto.dev)\n", tracePath, len(res.Trace))
	}
	if metricsPath != "" {
		fmt.Printf("metrics: %s (%d bytes)\n", metricsPath, len(res.Metrics))
	}
	return nil
}

// listExperiments prints every experiment's id and description.
func listExperiments(w io.Writer) {
	fmt.Fprintln(w, "available experiments:")
	for _, e := range atrapos.Experiments() {
		fmt.Fprintf(w, "  %-24s %s\n", e.ID, e.Description)
	}
}

// parseScale resolves -scale and -profile into the scale every mode runs at.
// It runs before mode dispatch, so an unknown value of either is rejected
// whatever else the command line asks for.
func parseScale(name, profile string) (atrapos.Scale, error) {
	var scale atrapos.Scale
	switch name {
	case "quick":
		scale = atrapos.QuickScale()
	case "paper":
		scale = atrapos.PaperScale()
	default:
		return scale, fmt.Errorf("unknown scale %q (want quick or paper)", name)
	}
	scale.Profile = profile
	return scale, scale.Validate()
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or \"all\"")
		scaleName  = flag.String("scale", "quick", "experiment scale: quick or paper")
		profile    = flag.String("profile", "", "machine profile to run on (see -list-profiles); empty uses the scale's own machine")
		list       = flag.Bool("list", false, "list the available experiments and exit")
		listProf   = flag.Bool("list-profiles", false, "list the available machine profiles and exit")
		seed       = flag.Int64("seed", 42, "random seed")
		tracePath  = flag.String("trace", "", "run the traced adaptive-drift scenario and write a Perfetto-loadable Chrome trace to this path")
		metricsCSV = flag.String("metrics", "", "with -trace (or alone): write the planner-boundary metrics samples as CSV to this path")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep points / experiments run concurrently (1 = serial); results are bit-identical at any value")
	)
	flag.Parse()

	scale, err := parseScale(*scaleName, *profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale.Seed = *seed
	scale.Parallel = *parallel

	if *tracePath != "" || *metricsCSV != "" {
		if err := runTraced(scale, *tracePath, *metricsCSV); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *listProf {
		fmt.Println("available machine profiles:")
		for _, p := range atrapos.Profiles() {
			fmt.Printf("  %-14s %s\n", p.Name, p.Description)
		}
		return
	}

	if *list {
		listExperiments(os.Stdout)
		return
	}

	run := func(id string) error {
		start := time.Now()
		tbl, err := atrapos.RunExperiment(id, scale)
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *experiment == "all" {
		// The registry fans out across -parallel goroutines; tables print in
		// registry order with per-experiment wall time once everything landed.
		start := time.Now()
		results, err := atrapos.RunAllExperimentsTimed(scale)
		failed := false
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, r.Err)
				failed = true
				continue
			}
			fmt.Println(r.Table.String())
			fmt.Printf("(%s completed in %v)\n\n", r.ID, r.Wall.Round(time.Millisecond))
		}
		if err != nil || failed {
			os.Exit(1)
		}
		fmt.Printf("all %d experiments completed in %v at -parallel %d\n",
			len(results), time.Since(start).Round(time.Millisecond), *parallel)
		return
	}
	if err := run(*experiment); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *experiment, err)
		os.Exit(1)
	}
}
