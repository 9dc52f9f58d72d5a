package main

import (
	"fmt"

	"atrapos/internal/backend"
	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/partition"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// profile is the one modelled machine every workload runs on: 2 sockets x 4
// dies x 4 cores. It distinguishes all four island levels, and its
// socket-grained deployment is 2 islands = 2 pinned executors, which is what
// the 2-vCPU reference host can run without oversubscription.
const profile = "chiplet-2s4d"

// rows is the data-set size of every workload: 100k subscribers make TATP
// 1.3M rows over four tables (far beyond L2), and 100k rows for the
// single-table micro workloads.
const rows = 100_000

// spec describes one benchmark workload: how to build its engine and how much
// work one timed segment is.
type spec struct {
	name string
	why  string
	// executed workloads run engine.RunExecuted (wall-clock hash backend);
	// priced ones run engine.Run (virtual-time simulator).
	executed bool
	// segTxns is the number of transactions of one segment at scale 1.
	segTxns int
	// config builds the workload's engine configuration over a data set of the
	// given size. It is called once per pass; its cost is part of setup_s.
	config func(rows int) (engine.Config, error)
	// drill runs the crash drill on this workload as one of its output checks.
	drill bool
	// adaptive workloads repartition while they run, which allocates; the
	// allocation budget applies to the others.
	adaptive bool
}

// pricedWorkers is the worker count of every priced run. One issuing
// goroutine keeps priced results a function of (seed, config) only; ROADMAP
// direction 1 removes the knob, which then is a one-line change here.
const pricedWorkers = 1

func machine() *topology.Topology {
	top, err := topology.BuildProfile(profile)
	if err != nil {
		panic(err) // the profile name is a constant of this file
	}
	return top
}

// specs lists the workloads in report order. The "why" strings are the
// one-line reasons BENCHMARK.json carries; README.md has the paragraphs.
func specs() []spec {
	tatp := func(n int) (*workload.Workload, error) {
		return workload.TATP(workload.TATPOptions{Subscribers: n})
	}
	// engine.DerivePlacement is not a function of its inputs at this commit:
	// the bounds it returns repeat, the core assignment follows map iteration
	// order, and virtual time moves ~1-2% with it. Passes must replay pass 0, so
	// the placement is derived once per process (the search takes 2-4 ms of a
	// ~0.8 s set-up) and reused.
	var derived *partition.Placement
	return []spec{
		{
			name:    "tatp-central",
			why:     "TATP on one central lock manager and log: the lock layer dominates host time",
			segTxns: 12_000,
			config: func(n int) (engine.Config, error) {
				wl, err := tatp(n)
				return engine.Config{Design: engine.Centralized, Workload: wl, Topology: machine()}, err
			},
		},
		{
			name:    "tatp-atrapos",
			why:     "same TATP traffic on the paper's design: btree reads and partition-local locks, the twin of tatp-central",
			segTxns: 40_000,
			config: func(n int) (engine.Config, error) {
				wl, err := tatp(n)
				if err != nil {
					return engine.Config{}, err
				}
				top := machine()
				if derived == nil {
					derived = engine.DerivePlacement(wl, top, true)
				}
				return engine.Config{
					Design:     engine.ATraPos,
					Workload:   wl,
					Topology:   top,
					Monitoring: true,
					Placement:  derived,
				}, nil
			},
		},
		{
			name:     "tatp-drift",
			why:      "sliding hotspot under the adaptive planner: the only workload where monitor, planner, repartitioning and span rings work",
			segTxns:  40_000,
			adaptive: true,
			config: func(n int) (engine.Config, error) {
				// TATPDriftingHotspot's traffic (80% of accesses in a 10% window
				// that slides every 5 virtual ms) with 5% of the reads turned into
				// UpdLocation writes on the same table: every end-to-end metric
				// must be non-zero on every workload, and a read-only workload has
				// no log bytes. Only Subscriber carries load either way.
				wl, err := workload.TATP(workload.TATPOptions{
					Subscribers: n,
					Mix:         map[string]float64{workload.TATPGetSubData: 95, workload.TATPUpdLocation: 5},
					Skew:        workload.Skew{HotDataFraction: 0.1, HotAccessFraction: 0.8, DriftPeriod: 5 * vclock.Nanos(1e6)},
				})
				if err != nil {
					return engine.Config{}, err
				}
				wl.Name = "TATP-drifting-hotspot-5w"
				return engine.Config{
					Design:   engine.ATraPos,
					Workload: wl,
					Topology: machine(),
					Adaptive: true,
					// The monitoring interval stays at one virtual millisecond. Left to
					// relax to 8 ms (longer than the 5 ms drift period) the run is
					// bimodal: in some segments the planner stops tracking the
					// hotspot (1-2 repartitions, 0.4-0.9 M virtual TPS against 1.5 M),
					// and which ones flips with the seed — virtual_tps 0.95-1.51 M
					// over six seeds, against 1.55-1.60 M with the interval pinned.
					AdaptiveInterval: core.IntervalConfig{Initial: 1 * vclock.Nanos(1e6), Max: 1 * vclock.Nanos(1e6)},
					TimeCompression:  1000,
					// Tracing is what selects the inline, deterministic planner
					// today (engine.adaptiveState.sync); it flips off once priced
					// runs are single-goroutine.
					Tracing: true,
				}, nil
			},
		},
		{
			name:    "hotkey-wal",
			why:     "write-only hot keys through die-grained island logs, coalescer, 2PC and one SATA device queue",
			segTxns: 14_000,
			drill:   true,
			config: func(n int) (engine.Config, error) {
				lc := wal.DefaultConfig()
				lc.CoalesceRecords = 64
				return engine.Config{
					Design:       engine.SharedNothing,
					IslandLevel:  topology.LevelDie,
					Workload:     workload.ZipfHotkey(n, 10, 30),
					Topology:     machine(),
					DeviceLayout: "single-sata",
					LogConfig:    &lc,
				}, nil
			},
		},
		{
			name:     "exec-local",
			why:      "executed hash backend, site-local YCSB-B: per-action clock brackets, value-log commit, generator; zero ships",
			executed: true,
			segTxns:  400_000,
			config: func(n int) (engine.Config, error) {
				return executedConfig(workload.YCSB(n, workload.YCSBB)), nil
			},
		},
		{
			name:     "exec-multisite",
			why:      "executed hash backend, 20% multisite 10-update txns: cross-executor ship waits are nearly all of the time",
			executed: true,
			segTxns:  2_000,
			config: func(n int) (engine.Config, error) {
				return executedConfig(workload.MultisiteUpdate(n, 20)), nil
			},
		},
	}
}

// executedConfig is the shared shape of the executed workloads: socket-grained
// islands, i.e. two pinned executors on the benchmark's machine.
func executedConfig(wl *workload.Workload) engine.Config {
	return engine.Config{
		Design:      engine.SharedNothing,
		IslandLevel: topology.LevelSocket,
		Workload:    wl,
		Topology:    machine(),
		Backend:     backend.Hash,
	}
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
