// Command benchmark is the repository's benchmark: six workloads over both of
// the reproduction's clocks (the virtual-time "priced" simulator and the
// wall-clock "executed" hash engine), end-to-end metrics with regression
// bounds, output checks, and a traced mode that replays each layer's call
// stream from outside to attribute host time layer by layer.
//
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory is the catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs every workload in turn")
		seed     = flag.Int64("seed", 42, "base seed of the generated inputs")
		seconds  = flag.Int("seconds", runSeconds, "measuring time per workload, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics, trace and profile under benchmark/out), 0 = end-to-end metrics")
		aa       = flag.Bool("aa", false, "run the end-to-end set twice and fail if the two disagree beyond the bounds")
		out      = flag.String("out", "benchmark/out", "directory of the traced run's artifacts")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *aa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, seconds int, traced, aa bool, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	budget := time.Duration(seconds) * time.Second
	if aa {
		return runAA(seed, budget)
	}
	list := specs()
	if workload != "" {
		s, err := specByName(workload)
		if err != nil {
			return err
		}
		list = []spec{s}
	}
	failed := false
	for _, s := range list {
		res, err := runOne(s, seed, budget, traced, outDir)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runOne runs one workload in one mode, prints its human-readable report and
// returns the machine-readable result. outDir is where a traced run writes
// trace-<workload>.json and cpu-<workload>.pprof.
func runOne(s spec, seed int64, budget time.Duration, traced bool, outDir string) (result, error) {
	if traced {
		rep, err := runTraced(s, fullSize, tracedSizeFor(budget), seed, outDir)
		if err != nil {
			return result{}, err
		}
		rep.print(os.Stdout)
		return result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}, nil
	}
	rep, err := runEndToEnd(s, fullSize, seed, budget)
	if err != nil {
		return result{}, err
	}
	rep.print(os.Stdout)
	return result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEndMetrics(),
	}, nil
}
