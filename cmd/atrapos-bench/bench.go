package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"atrapos"
)

// DesignRecord is the measured hot-path profile of one design.
type DesignRecord struct {
	Design string `json:"design"`
	// Transactions is the number of measured transactions.
	Transactions int64 `json:"transactions"`
	// WallNanos is the host wall-clock time of the measured run.
	WallNanos int64 `json:"wall_nanos"`
	// WallTxnPerSec is how many simulated transactions the simulator itself
	// executes per host second: the number the hot-path work optimizes.
	WallTxnPerSec float64 `json:"wall_txn_per_sec"`
	// AllocsPerTxn is the average number of heap allocations per transaction
	// on the steady-state path (measured over the whole run, so per-run setup
	// is amortized; the partitioned designs must stay ~0).
	AllocsPerTxn float64 `json:"allocs_per_txn"`
	// BytesPerTxn is the average number of heap bytes per transaction.
	BytesPerTxn float64 `json:"bytes_per_txn"`
	// VirtualTPS is the modeled throughput of the design (virtual time),
	// recorded so a hot-path change that accidentally shifts the simulated
	// results is visible in the same file.
	VirtualTPS float64 `json:"virtual_tps"`
	Committed  int64   `json:"committed"`
	Aborted    int64   `json:"aborted"`
	// Repartitions and RepartitionDiffs record the adaptive pipeline's
	// activity during the measured run (adaptive designs only): how often it
	// repartitioned and how large each diff was.
	Repartitions     int64        `json:"repartitions,omitempty"`
	RepartitionDiffs []DiffRecord `json:"repartition_diffs,omitempty"`
	// AdaptationCostShare is the fraction of total core busy time spent on
	// migration pauses.
	AdaptationCostShare float64 `json:"adaptation_cost_share,omitempty"`
}

// DiffRecord is the per-repartitioning diff size: how much of the placement
// one adaptation touched and how much runtime state it reused.
type DiffRecord struct {
	ChangedTables    int `json:"changed_tables"`
	UnchangedTables  int `json:"unchanged_tables"`
	MovedPartitions  int `json:"moved_partitions"`
	ReusedLockTables int `json:"reused_lock_tables"`
	AffectedCores    int `json:"affected_cores"`
}

// BenchRecord is the BENCH.json document: one perf trajectory point.
type BenchRecord struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// RunGoroutines is the goroutine count of each measured engine run: always
	// 1. The record field predates the single-goroutine run loop and stays so
	// the committed trajectory keeps decoding.
	RunGoroutines int            `json:"workers"`
	Seed          int64          `json:"seed"`
	Transactions  int            `json:"transactions"`
	Workload      string         `json:"workload"`
	Topology      string         `json:"topology"`
	Designs       []DesignRecord `json:"designs"`
	// Islands records the island-granularity sweep (fig-islands at bench
	// scale): the parametric shared-nothing design per machine profile,
	// island level and multisite probability, so granularity crossovers are
	// tracked commit over commit alongside the hot-path numbers.
	Islands []atrapos.IslandPoint `json:"islands,omitempty"`
	// AdaptiveGranularity records the fig-adaptive-granularity trajectory:
	// the island-level changes the planner executed as the multisite share
	// drifted across the crossover, and whether it tracked the statically
	// best level on either side.
	AdaptiveGranularity *atrapos.GranularityTrajectory `json:"adaptive_granularity,omitempty"`
	// LogDevices records the log-device sweep (fig-log-devices at bench
	// scale): the shared-nothing design per log-device layout, island level
	// and multisite probability, so the crossover's movement with the storage
	// profile is tracked commit over commit.
	LogDevices []atrapos.DevicePoint `json:"log_devices,omitempty"`
	// GroupCommit records the coalescing group-commit sweep
	// (fig-group-commit at bench scale): the shared-nothing design on the
	// zipf-hotkey workload with the write-combining WAL accumulator on and
	// off per device layout and island level, so the logical-vs-physical
	// split and the coalescing win on scarce devices are tracked commit over
	// commit.
	GroupCommit []atrapos.GroupCommitPoint `json:"group_commit,omitempty"`
	// Faults records the fig-faults timeline: per-phase throughput of the
	// adaptive shared-nothing design under the fail→degrade→restore fault
	// schedule, with the dips, the recovery and the re-homed island logs
	// asserted, so robustness under hardware faults is tracked commit over
	// commit.
	Faults *atrapos.FaultTimeline `json:"faults,omitempty"`
	// HarnessParallel records the parallel-harness determinism check: the
	// island sweep measured once serially and once through the point
	// scheduler, with wall times, speedup and the bit-identity verdict, so a
	// scheduling change that alters results (or loses the speedup) shows up
	// in the trajectory.
	HarnessParallel *atrapos.ParallelReport `json:"harness_parallel,omitempty"`
	// ExecutedStorage records the executed-storage sweep (fig-executed at
	// bench scale): the islands grid measured both by the priced cost model
	// and by real execution on the sharded hash backend, the per-profile
	// rank correlations before and after cost-model calibration, and the
	// crossover-direction agreement on the chiplet machine.
	ExecutedStorage *atrapos.ExecutedReport `json:"executed_storage,omitempty"`
}

// runBenchJSON measures every design's transaction hot path on the TATP mix
// and writes the result to path. The measurement intentionally bypasses the
// experiment harness: it calls System.Run directly so the recorded numbers
// are the per-transaction simulator cost, comparable across commits. A
// non-empty profile pins the hot-path machine (and the islands sweep) to the
// named machine profile instead of the default 4x2 box.
func runBenchJSON(path string, txns int, seed int64, profile string, parallel int) error {
	if txns < 4 {
		return fmt.Errorf("-txns must be at least 4, got %d", txns)
	}
	const subscribers = 4000
	top, err := atrapos.NewTopology(4, 2)
	if err != nil {
		return err
	}
	if profile != "" {
		if top, err = atrapos.BuildProfile(profile); err != nil {
			return err
		}
	}
	rec := BenchRecord{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		RunGoroutines: 1,
		Seed:          seed,
		Transactions:  txns,
		Workload:      "TATP",
		Topology:      top.String(),
	}
	for _, d := range atrapos.Designs() {
		wl, err := atrapos.TATP(atrapos.TATPOptions{Subscribers: subscribers})
		if err != nil {
			return err
		}
		opts := atrapos.Options{Design: d, Workload: wl, Topology: top}
		if d == atrapos.DesignATraPos {
			opts.Adaptive = true
		}
		sys, err := atrapos.Open(opts)
		if err != nil {
			return fmt.Errorf("%v: %w", d, err)
		}
		// Warm up the reusable buffers, pools and caches.
		if _, err := sys.Run(atrapos.RunOptions{Transactions: txns / 4, Seed: seed}); err != nil {
			return fmt.Errorf("%v warmup: %w", d, err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := sys.Run(atrapos.RunOptions{Transactions: txns, Seed: seed + 1})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("%v: %w", d, err)
		}
		n := res.Committed + res.Aborted
		dr := DesignRecord{
			Design:       d.String(),
			Transactions: n,
			WallNanos:    wall.Nanoseconds(),
			VirtualTPS:   res.ThroughputTPS,
			Committed:    res.Committed,
			Aborted:      res.Aborted,
		}
		if n > 0 {
			dr.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(n)
			dr.BytesPerTxn = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		}
		if wall > 0 {
			dr.WallTxnPerSec = float64(n) / wall.Seconds()
		}
		dr.Repartitions = res.Repartitions
		dr.AdaptationCostShare = res.AdaptationCostShare
		for _, d := range res.RepartitionDiffs {
			dr.RepartitionDiffs = append(dr.RepartitionDiffs, DiffRecord{
				ChangedTables:    d.ChangedTables,
				UnchangedTables:  d.UnchangedTables,
				MovedPartitions:  d.MovedPartitions,
				ReusedLockTables: d.ReusedLockTables,
				AffectedCores:    d.AffectedCores,
			})
		}
		rec.Designs = append(rec.Designs, dr)
	}
	// One extra point exercises the incremental adaptation pipeline: the
	// drifting-hotspot scenario keeps the planner repartitioning, so the
	// recorded diff sizes show how much of each migration was incremental
	// (unchanged tables, reused lock tables) commit over commit.
	driftRec, err := runDriftRecord(subscribers, top, txns, seed)
	if err != nil {
		return err
	}
	rec.Designs = append(rec.Designs, driftRec)
	// The island-granularity sweep: the endpoints of the multisite axis on
	// each sweep profile are enough to track the crossover per commit.
	islandScale := atrapos.QuickScale()
	islandScale.Seed = seed
	islandScale.Transactions = txns / 4
	islandScale.Profile = profile
	rec.Islands, err = atrapos.IslandSweep(islandScale, []int{0, 50, 100})
	if err != nil {
		return err
	}
	// The adaptive-granularity trajectory: the planner re-wiring the machine
	// as the multisite share drifts across the crossover, recorded so the
	// convergence behaviour is tracked commit over commit. The static
	// winners come from the island sweep just measured above.
	rec.AdaptiveGranularity, err = atrapos.RunAdaptiveGranularityFrom(islandScale, rec.Islands)
	if err != nil {
		return err
	}
	// The log-device sweep: the multisite endpoints per storage shape are
	// enough to track how the granularity crossover moves with device count.
	rec.LogDevices, err = atrapos.DeviceSweep(islandScale, []int{0, 100})
	if err != nil {
		return err
	}
	// The coalescing group-commit sweep: write-combining on/off per device
	// layout and island level on the zipf-hotkey workload, so the net-delta
	// collapse ratio and the single-device coalescing win are tracked.
	rec.GroupCommit, err = atrapos.GroupCommitSweep(islandScale)
	if err != nil {
		return err
	}
	// The fault timeline: dips and recovery across the fail→degrade→restore
	// schedule, so a regression in re-homing or elastic recovery shows up in
	// the trajectory.
	rec.Faults, err = atrapos.RunFaultTimeline(islandScale)
	if err != nil {
		return err
	}
	// The parallel-harness determinism check: serial vs pooled island sweep,
	// bit-identity asserted, wall times recorded. On a single-core host the
	// pool degrades to concurrency 1 and the speedup hovers around 1.
	parScale := islandScale
	parScale.Parallel = parallel
	rec.HarnessParallel, err = atrapos.MeasureParallel(parScale)
	if err != nil {
		return err
	}
	// The executed-storage sweep: the islands grid in both modes with the
	// measured-vs-priced calibration, so the cost model's level ranking stays
	// anchored to real execution commit over commit.
	rec.ExecutedStorage, err = atrapos.ExecutedSweep(islandScale)
	if err != nil {
		return err
	}
	records, err := appendTrajectory(path, rec)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	// Validate the document before it replaces the trajectory, and swap it in
	// atomically: a malformed or half-written record can never corrupt the
	// committed BENCH.json.
	if err := checkBenchDocument(out); err != nil {
		return fmt.Errorf("bench: refusing to write malformed trajectory: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d trajectory point(s)); latest:\n", path, len(records))
	latest, _ := json.MarshalIndent(rec, "", "  ")
	fmt.Printf("%s\n", latest)
	return nil
}

// checkBenchDocument validates a BENCH.json document: a JSON array of
// trajectory records matching the BenchRecord schema exactly (unknown fields
// are rejected), each carrying a timestamp and at least one design record
// with sane counters. It is the well-formedness gate behind -verify and the
// pre-write check of -json.
func checkBenchDocument(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var records []BenchRecord
	if err := dec.Decode(&records); err != nil {
		return fmt.Errorf("not a BenchRecord array: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the record array")
	}
	if len(records) == 0 {
		return fmt.Errorf("empty trajectory")
	}
	for i, r := range records {
		if r.GeneratedAt == "" {
			return fmt.Errorf("record %d has no generated_at timestamp", i)
		}
		if len(r.Designs) == 0 {
			return fmt.Errorf("record %d has no design records", i)
		}
		for _, d := range r.Designs {
			if d.Design == "" {
				return fmt.Errorf("record %d has a design record without a name", i)
			}
			if d.Transactions < 0 || d.Committed < 0 || d.Aborted < 0 {
				return fmt.Errorf("record %d design %s has negative counters", i, d.Design)
			}
		}
		if g := r.AdaptiveGranularity; g != nil {
			if g.Profile == "" || g.FinalLevel == "" {
				return fmt.Errorf("record %d adaptive-granularity trajectory is missing its profile or final level", i)
			}
			for _, lc := range g.Changes {
				if err := checkScoreTerms(lc.WinnerScores, "winner"); err != nil {
					return fmt.Errorf("record %d level change %s->%s: %w", i, lc.From, lc.To, err)
				}
				if err := checkScoreTerms(lc.RunnerUpScores, "runner-up"); err != nil {
					return fmt.Errorf("record %d level change %s->%s: %w", i, lc.From, lc.To, err)
				}
				if w := lc.WinnerScores; w != nil {
					if w.Level != lc.To {
						return fmt.Errorf("record %d level change %s->%s: winner breakdown prices %q, not the level switched to",
							i, lc.From, lc.To, w.Level)
					}
					// The winner is the minimum of the scored candidates: a
					// runner-up strictly cheaper than it is a corrupt record.
					if ru := lc.RunnerUpScores; ru != nil && ru.Total < w.Total {
						return fmt.Errorf("record %d level change %s->%s: runner-up total %.6f beats winner total %.6f",
							i, lc.From, lc.To, ru.Total, w.Total)
					}
				}
			}
		}
		for _, pt := range r.LogDevices {
			if pt.Profile == "" || pt.Layout == "" || pt.Level == "" {
				return fmt.Errorf("record %d has a log-device point without profile, layout or level", i)
			}
			if pt.Devices < 1 {
				return fmt.Errorf("record %d log-device point %s/%s claims %d devices", i, pt.Layout, pt.Level, pt.Devices)
			}
			if pt.MultiPct < 0 || pt.MultiPct > 100 || pt.Committed < 0 {
				return fmt.Errorf("record %d log-device point %s/%s has invalid counters", i, pt.Layout, pt.Level)
			}
		}
		coalescedRatioOK := len(r.GroupCommit) == 0
		for _, pt := range r.GroupCommit {
			if pt.Profile == "" || pt.Layout == "" || pt.Level == "" {
				return fmt.Errorf("record %d has a group-commit point without profile, layout or level", i)
			}
			if pt.Devices < 1 || pt.Committed < 0 || pt.Coalesce < 0 {
				return fmt.Errorf("record %d group-commit point %s/%s has invalid counters", i, pt.Layout, pt.Level)
			}
			if pt.LogicalRecords < 0 || pt.PhysicalRecords < 0 || pt.PhysicalFlushes < 0 {
				return fmt.Errorf("record %d group-commit point %s/%s has negative log counters", i, pt.Layout, pt.Level)
			}
			if pt.RecordRatio < 0 || pt.RecordRatio > 1 {
				return fmt.Errorf("record %d group-commit point %s/%s has record ratio %f outside [0,1]", i, pt.Layout, pt.Level, pt.RecordRatio)
			}
			if pt.Coalesce == 0 && (pt.CoalescedRecords != 0 || (pt.LogicalRecords > 0 && pt.RecordRatio != 1)) {
				return fmt.Errorf("record %d group-commit point %s/%s claims coalescing with the accumulator off", i, pt.Layout, pt.Level)
			}
			if pt.Coalesce > 0 && pt.LogicalRecords > 0 {
				// The headline invariant of the sweep: write-combining keeps
				// physical flushes at or under half the logical record count
				// on the zipf-hotkey write shape.
				if 2*pt.PhysicalFlushes > pt.LogicalRecords {
					return fmt.Errorf("record %d group-commit point %s/%s: %d physical flushes exceed half of %d logical records",
						i, pt.Layout, pt.Level, pt.PhysicalFlushes, pt.LogicalRecords)
				}
				if pt.RecordRatio <= 0.5 {
					coalescedRatioOK = true
				}
			}
		}
		if !coalescedRatioOK {
			return fmt.Errorf("record %d has no coalesced group-commit point with record ratio <= 0.5", i)
		}
		// The coalescing win on the serialized device: on single-sata every
		// island level must be at least as fast with write-combining as
		// without it — the throughput side of the sweep's headline claim.
		sataOff := make(map[string]float64)
		for _, pt := range r.GroupCommit {
			if pt.Layout == "single-sata" && pt.Coalesce == 0 {
				sataOff[pt.Level] = pt.TPS
			}
		}
		for _, pt := range r.GroupCommit {
			if pt.Layout != "single-sata" || pt.Coalesce == 0 {
				continue
			}
			if off, ok := sataOff[pt.Level]; ok && pt.TPS < off {
				return fmt.Errorf("record %d group-commit point single-sata/%s: coalescing lost throughput (%.0f < %.0f)",
					i, pt.Level, pt.TPS, off)
			}
		}
		if f := r.Faults; f != nil {
			if f.Profile == "" || f.Layout == "" || f.Schedule == "" {
				return fmt.Errorf("record %d faults timeline is missing its profile, layout or schedule", i)
			}
			if len(f.Phases) == 0 {
				return fmt.Errorf("record %d faults timeline has no phases", i)
			}
			for _, ph := range f.Phases {
				if ph.Label == "" {
					return fmt.Errorf("record %d faults timeline has an unlabeled phase", i)
				}
				if ph.AvgTPS < 0 || ph.FromS < 0 || ph.ToS <= ph.FromS {
					return fmt.Errorf("record %d faults phase %s has invalid bounds or throughput", i, ph.Label)
				}
			}
			if f.Committed < 0 {
				return fmt.Errorf("record %d faults timeline has negative committed count", i)
			}
		}
		if hp := r.HarnessParallel; hp != nil {
			if hp.Concurrency < 1 || hp.PointGoroutines < 1 {
				return fmt.Errorf("record %d harness_parallel claims concurrency %d with %d point workers", i, hp.Concurrency, hp.PointGoroutines)
			}
			if hp.Points <= 0 {
				return fmt.Errorf("record %d harness_parallel measured no sweep points", i)
			}
			if hp.SerialWallMS <= 0 || hp.ParallelWallMS <= 0 {
				return fmt.Errorf("record %d harness_parallel has non-positive wall times (%.3f ms serial, %.3f ms parallel)",
					i, hp.SerialWallMS, hp.ParallelWallMS)
			}
			// Bit-identity is the contract the whole scheduler stands on; a
			// record that admits divergence is a determinism regression, not a
			// data point.
			if !hp.Identical {
				return fmt.Errorf("record %d harness_parallel reports non-identical serial and parallel results", i)
			}
			// The speedup must be the wall-time ratio it claims to be (1%
			// tolerance for rounding through the JSON float round-trip).
			want := hp.SerialWallMS / hp.ParallelWallMS
			if hp.Speedup < 0.99*want || hp.Speedup > 1.01*want {
				return fmt.Errorf("record %d harness_parallel speedup %.3f does not match its wall times (%.3f/%.3f = %.3f)",
					i, hp.Speedup, hp.SerialWallMS, hp.ParallelWallMS, want)
			}
			// With real concurrency available the pool must actually pay off;
			// 1.5x at >= 4-way is lenient enough for noisy CI runners, while a
			// single-core record (concurrency 1, speedup ~1) passes untouched.
			if hp.Concurrency >= 4 && hp.Speedup < 1.5 {
				return fmt.Errorf("record %d harness_parallel claims %d-way concurrency but only %.2fx speedup",
					i, hp.Concurrency, hp.Speedup)
			}
		}
		if ex := r.ExecutedStorage; ex != nil {
			if len(ex.Points) == 0 {
				return fmt.Errorf("record %d executed_storage has no points", i)
			}
			for _, pt := range ex.Points {
				if pt.Profile == "" || pt.Level == "" {
					return fmt.Errorf("record %d has an executed-storage point without profile or level", i)
				}
				if pt.MultiPct < 0 || pt.MultiPct > 100 || pt.Committed <= 0 {
					return fmt.Errorf("record %d executed-storage point %s/%s has invalid counters", i, pt.Profile, pt.Level)
				}
				switch pt.Mode {
				case "priced":
					if pt.TPS <= 0 {
						return fmt.Errorf("record %d priced point %s/%s has no virtual throughput", i, pt.Profile, pt.Level)
					}
				case "executed":
					if pt.MeasuredKTPS <= 0 {
						return fmt.Errorf("record %d executed point %s/%s has non-positive measured KTPS", i, pt.Profile, pt.Level)
					}
				default:
					return fmt.Errorf("record %d executed-storage point %s/%s has unknown mode %q", i, pt.Profile, pt.Level, pt.Mode)
				}
			}
			if len(ex.Profiles) == 0 {
				return fmt.Errorf("record %d executed_storage has no profile reports", i)
			}
			for _, pr := range ex.Profiles {
				if pr.Profile == "" {
					return fmt.Errorf("record %d has an unnamed executed-storage profile report", i)
				}
				if pr.RankBefore < -1 || pr.RankBefore > 1 || pr.RankAfter < -1 || pr.RankAfter > 1 {
					return fmt.Errorf("record %d executed-storage profile %s has rank correlation outside [-1,1]", i, pr.Profile)
				}
				// The identity fallback makes calibration monotone: a record
				// where the fitted factors made the ranking worse is corrupt.
				if pr.RankAfter < pr.RankBefore {
					return fmt.Errorf("record %d executed-storage profile %s: calibration worsened the rank correlation (%.3f -> %.3f)",
						i, pr.Profile, pr.RankBefore, pr.RankAfter)
				}
				for name, f := range pr.Factors {
					if f <= 0 {
						return fmt.Errorf("record %d executed-storage profile %s has non-positive factor %s", i, pr.Profile, name)
					}
				}
			}
			if ex.CrossoverProfile == "" {
				return fmt.Errorf("record %d executed_storage names no crossover profile", i)
			}
			// Real execution must back the priced model's crossover direction
			// on the chiplet machine — the sweep's headline claim.
			if !ex.CrossoverAgrees {
				return fmt.Errorf("record %d executed_storage: priced and executed modes disagree on the crossover direction on %s",
					i, ex.CrossoverProfile)
			}
		}
	}
	return nil
}

// checkScoreTerms validates one per-term score breakdown: a priced level name
// and five terms that sum to the recorded total. The scorer computes the total
// as exactly this left-to-right sum, so the JSON float round-trip (exact for
// float64) leaves only re-association noise — a loose absolute epsilon covers
// validators summing in the same order while still catching edited terms.
// A nil breakdown (older record) passes.
func checkScoreTerms(sr *atrapos.ScoreTermsRecord, which string) error {
	if sr == nil {
		return nil
	}
	if sr.Level == "" {
		return fmt.Errorf("%s score breakdown names no level", which)
	}
	sum := sr.Locality + sr.TxnState + sr.Commit + sr.Conflict + sr.Comm
	if diff := sum - sr.Total; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("%s score breakdown for %s: terms sum to %.9f, total says %.9f",
			which, sr.Level, sum, sr.Total)
	}
	return nil
}

// verifyBenchJSON checks an existing BENCH.json on disk, so CI fails loudly
// when an appended trajectory record corrupted the file.
func verifyBenchJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := checkBenchDocument(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runDriftRecord measures the adaptive design under the drifting-hotspot
// workload, whose moving hot window forces repeated repartitionings: the
// resulting record carries real repartition diff sizes and the adaptation
// cost share.
func runDriftRecord(subscribers int, top *atrapos.Topology, txns int, seed int64) (DesignRecord, error) {
	wl, err := atrapos.TATPDriftingHotspot(subscribers, atrapos.Seconds(0.005))
	if err != nil {
		return DesignRecord{}, err
	}
	sys, err := atrapos.Open(atrapos.Options{
		Design:   atrapos.DesignATraPos,
		Workload: wl,
		Topology: top,
		Adaptive: true,
		AdaptiveInterval: atrapos.IntervalConfig{
			Initial: atrapos.Seconds(0.001),
			Max:     atrapos.Seconds(0.008),
		},
		TimeCompression: 1000,
	})
	if err != nil {
		return DesignRecord{}, err
	}
	if _, err := sys.Run(atrapos.RunOptions{Transactions: txns / 4, Seed: seed}); err != nil {
		return DesignRecord{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sys.Run(atrapos.RunOptions{Transactions: txns, Seed: seed + 1})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return DesignRecord{}, err
	}
	n := res.Committed + res.Aborted
	dr := DesignRecord{
		Design:              "atrapos-adaptive-drift",
		Transactions:        n,
		WallNanos:           wall.Nanoseconds(),
		VirtualTPS:          res.ThroughputTPS,
		Committed:           res.Committed,
		Aborted:             res.Aborted,
		Repartitions:        res.Repartitions,
		AdaptationCostShare: res.AdaptationCostShare,
	}
	if n > 0 {
		dr.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(n)
		dr.BytesPerTxn = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	if wall > 0 {
		dr.WallTxnPerSec = float64(n) / wall.Seconds()
	}
	for _, d := range res.RepartitionDiffs {
		dr.RepartitionDiffs = append(dr.RepartitionDiffs, DiffRecord{
			ChangedTables:    d.ChangedTables,
			UnchangedTables:  d.UnchangedTables,
			MovedPartitions:  d.MovedPartitions,
			ReusedLockTables: d.ReusedLockTables,
			AffectedCores:    d.AffectedCores,
		})
	}
	return dr, nil
}

// appendTrajectory loads the existing BENCH.json trajectory and appends rec.
// The file is a JSON array of per-commit records; a legacy single-record
// file is promoted to a one-element array first.
func appendTrajectory(path string, rec BenchRecord) ([]BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return []BenchRecord{rec}, nil
		}
		return nil, err
	}
	var records []BenchRecord
	if err := json.Unmarshal(data, &records); err != nil {
		var single BenchRecord
		if err2 := json.Unmarshal(data, &single); err2 != nil {
			return nil, fmt.Errorf("bench: %s is neither a record array nor a single record: %w", path, err)
		}
		records = []BenchRecord{single}
	}
	return append(records, rec), nil
}
