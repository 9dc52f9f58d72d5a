package harness

import (
	"fmt"

	"atrapos/internal/backend"
	"atrapos/internal/core"
	"atrapos/internal/engine"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// ExecutedPoint is one measured cell of the executed-storage sweep: a machine
// profile, a multisite probability and an island granularity, measured in one
// of two modes. Priced cells report the cost model's virtual throughput;
// executed cells report the real wall-clock throughput of the sharded hash
// backend in KTPS.
type ExecutedPoint struct {
	Profile      string  `json:"profile"`
	Mode         string  `json:"mode"` // "priced" or "executed"
	MultiPct     int     `json:"multisite_pct"`
	Level        string  `json:"island_level"`
	TPS          float64 `json:"virtual_tps,omitempty"`
	MeasuredKTPS float64 `json:"measured_ktps,omitempty"`
	Committed    int64   `json:"committed"`
}

// ExecutedProfileReport is the calibration verdict for one machine profile:
// how well the priced model ranked the island levels against real execution
// before and after fitting per-component correction factors, the factors
// themselves, and the fine-vs-coarse crossover direction each mode observed.
type ExecutedProfileReport struct {
	Profile string `json:"profile"`
	// RankBefore / RankAfter are Spearman rank correlations between the priced
	// and measured level rankings, averaged over the multisite probabilities.
	// After is never below Before: when the fitted factors do not improve the
	// ranking the calibration falls back to identity.
	RankBefore float64 `json:"rank_before"`
	RankAfter  float64 `json:"rank_after"`
	// Calibrated reports whether a non-identity calibration was kept.
	Calibrated bool `json:"calibrated"`
	// Factors are the per-component correction factors (1 = no correction),
	// keyed by cost-component name.
	Factors map[string]float64 `json:"factors"`
	// CrossPriced / CrossExecuted report whether the finest island level's
	// advantage over the coarsest *shrinks* as the multisite probability grows
	// (the crossover direction the paper predicts), per mode.
	CrossPriced   bool `json:"crossover_priced"`
	CrossExecuted bool `json:"crossover_executed"`
}

// ExecutedReport is the executed_storage BENCH.json payload: every sweep
// point in both modes, the per-profile calibration reports, and whether the
// two modes agree on the crossover direction on the chiplet machine.
type ExecutedReport struct {
	Points           []ExecutedPoint         `json:"points"`
	Profiles         []ExecutedProfileReport `json:"profiles"`
	CrossoverProfile string                  `json:"crossover_profile"`
	CrossoverAgrees  bool                    `json:"crossover_agrees"`
}

// executedCrossoverProfile is the machine whose crossover-direction agreement
// gates the executed_storage record: chiplet-2s4d distinguishes all four
// island levels, so it is the sharpest test of the model's level ranking.
const executedCrossoverProfile = "chiplet-2s4d"

// runExecutedPricedCell measures one cell on the priced (virtual-time) path.
func runExecutedPricedCell(s Scale, prof topology.Profile, level topology.Level, pct int) (*engine.Result, error) {
	e, err := engine.New(engine.Config{
		Design:      engine.SharedNothing,
		IslandLevel: level,
		Workload:    workload.MultisiteUpdate(s.MicroRows, pct),
		Topology:    prof.Build(),
	})
	if err != nil {
		return nil, err
	}
	return e.Run(s.runOptions())
}

// runExecutedHashCell measures the same cell on the executed path: real
// operations on the sharded hash backend, one executor goroutine per island,
// timed in wall nanoseconds. Callers must hold the pool's alloc token so no
// concurrent point pollutes the wall-clock measurement.
func runExecutedHashCell(s Scale, prof topology.Profile, level topology.Level, pct int) (*engine.ExecutedResult, error) {
	e, err := engine.New(engine.Config{
		Design:      engine.SharedNothing,
		IslandLevel: level,
		Workload:    workload.MultisiteUpdate(s.MicroRows, pct),
		Topology:    prof.Build(),
		Backend:     backend.Hash,
	})
	if err != nil {
		return nil, err
	}
	return e.RunExecuted(engine.RunOptions{Transactions: s.Transactions, Seed: s.Seed})
}

// ExecutedSweep runs the islands grid (profile x multisite probability x
// island level) in both storage modes and fits per-profile calibrations from
// the measured-vs-priced per-component time totals.
//
// Priced cells run concurrently through the harness pool like any sweep;
// executed cells run under the pool's alloc token, which makes each one a
// full barrier — wall-clock throughput is only meaningful when no other point
// shares the host. The multisite endpoints {0, 100} are enough for the
// crossover direction and keep the serialized executed cells cheap.
func ExecutedSweep(s Scale) (*ExecutedReport, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pcts := []int{0, 100}
	profiles := islandSweepProfiles(s)
	type cell struct {
		prof  topology.Profile
		pct   int
		level topology.Level
	}
	var grid []cell
	idx := make(map[string]int)
	key := func(profile string, pct int, level topology.Level) string {
		return fmt.Sprintf("%s|%d|%s", profile, pct, level)
	}
	for _, prof := range profiles {
		for _, pct := range pcts {
			for _, level := range prof.Levels() {
				idx[key(prof.Name, pct, level)] = len(grid)
				grid = append(grid, cell{prof, pct, level})
			}
		}
	}

	priced := make([]*engine.Result, len(grid))
	executed := make([]*engine.ExecutedResult, len(grid))
	pool := s.pool()
	jobs := make([]PointFn, len(grid))
	for i, c := range grid {
		jobs[i] = func() error {
			pres, err := runExecutedPricedCell(s, c.prof, c.level, c.pct)
			if err != nil {
				return fmt.Errorf("executed sweep (priced) %s/%s/%d%%: %w", c.prof.Name, c.level, c.pct, err)
			}
			priced[i] = pres
			err = pool.WithAllocToken(func() error {
				xres, err := runExecutedHashCell(s, c.prof, c.level, c.pct)
				if err != nil {
					return err
				}
				executed[i] = xres
				return nil
			})
			if err != nil {
				return fmt.Errorf("executed sweep (executed) %s/%s/%d%%: %w", c.prof.Name, c.level, c.pct, err)
			}
			return nil
		}
	}
	if err := pool.Run(jobs); err != nil {
		return nil, err
	}

	rep := &ExecutedReport{
		CrossoverProfile: executedCrossoverProfile,
		CrossoverAgrees:  true,
	}
	for i, c := range grid {
		rep.Points = append(rep.Points,
			ExecutedPoint{
				Profile:   c.prof.Name,
				Mode:      "priced",
				MultiPct:  c.pct,
				Level:     c.level.String(),
				TPS:       priced[i].ThroughputTPS,
				Committed: priced[i].Committed,
			},
			ExecutedPoint{
				Profile:      c.prof.Name,
				Mode:         "executed",
				MultiPct:     c.pct,
				Level:        c.level.String(),
				MeasuredKTPS: executed[i].MeasuredKTPS,
				Committed:    executed[i].Committed,
			})
	}

	for _, prof := range profiles {
		levels := prof.Levels()
		at := func(pct int, level topology.Level) int { return idx[key(prof.Name, pct, level)] }

		// Fit from per-component totals summed over the profile's grid: the
		// measured wall time the executors attributed to each component against
		// the virtual time the cost model charged to the same component.
		var measComp, pricedComp [vclock.NumComponents]int64
		for _, pct := range pcts {
			for _, lv := range levels {
				i := at(pct, lv)
				for comp, n := range priced[i].Breakdown.ByComp {
					pricedComp[comp] += int64(n)
				}
				for comp := 0; comp < vclock.NumComponents; comp++ {
					measComp[comp] += executed[i].Components[comp]
				}
			}
		}
		cal := core.FitCalibration(measComp, pricedComp)

		// Rank correlation: how the priced model orders the island levels
		// against how real execution orders them, averaged over the multisite
		// endpoints.
		rankWith := func(score func(i int) float64) float64 {
			var sum float64
			for _, pct := range pcts {
				ps := make([]float64, 0, len(levels))
				ms := make([]float64, 0, len(levels))
				for _, lv := range levels {
					i := at(pct, lv)
					ps = append(ps, score(i))
					ms = append(ms, executed[i].MeasuredKTPS)
				}
				sum += core.Spearman(ps, ms)
			}
			return sum / float64(len(pcts))
		}
		before := rankWith(func(i int) float64 { return priced[i].ThroughputTPS })
		after := rankWith(func(i int) float64 {
			p := cal.Predict(priced[i].Breakdown)
			if p <= 0 {
				return 0
			}
			return float64(priced[i].Committed) / p
		})
		calibrated := !cal.Identity()
		if after < before {
			// The fitted factors did not improve the ranking on this profile;
			// keep the raw model. The identity fallback makes the post-fit
			// correlation monotone by construction, which is what the
			// executed_storage verification gate asserts.
			cal = core.IdentityCalibration()
			after = before
			calibrated = false
		}

		// Crossover direction: does the finest level's advantage over the
		// coarsest shrink as the multisite probability grows?
		fine, coarse := levels[0], levels[len(levels)-1]
		direction := func(score func(i int) float64) bool {
			ratio := func(pct int) float64 {
				c := score(at(pct, coarse))
				if c <= 0 {
					return 0
				}
				return score(at(pct, fine)) / c
			}
			return ratio(pcts[0]) > ratio(pcts[len(pcts)-1])
		}
		pr := ExecutedProfileReport{
			Profile:       prof.Name,
			RankBefore:    before,
			RankAfter:     after,
			Calibrated:    calibrated,
			Factors:       cal.FactorNames(),
			CrossPriced:   direction(func(i int) float64 { return priced[i].ThroughputTPS }),
			CrossExecuted: direction(func(i int) float64 { return executed[i].MeasuredKTPS }),
		}
		rep.Profiles = append(rep.Profiles, pr)
		if prof.Name == rep.CrossoverProfile {
			rep.CrossoverAgrees = pr.CrossPriced == pr.CrossExecuted
		}
	}
	return rep, nil
}

// FigExecuted is the executed-storage experiment: the islands grid measured
// both by the priced cost model and by real execution on the sharded hash
// backend, with per-profile rank correlations before/after calibration. It
// fails when the two modes disagree on the fine-vs-coarse crossover direction
// on the chiplet machine — the one assertion that real execution must back up
// the model on.
func FigExecuted(s Scale) (*Table, error) {
	rep, err := ExecutedSweep(s)
	if err != nil {
		return nil, err
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	t := &Table{
		ID:    "fig-executed",
		Title: "Executed storage vs priced model: level-ranking correlation and crossover direction",
		Header: []string{"profile", "rank before", "rank after", "calibrated",
			"crossover (priced)", "crossover (executed)", "agree"},
		Notes: []string{
			"rank: Spearman correlation between the priced and measured island-level rankings, averaged over multisite 0% and 100%.",
			"crossover: whether the finest level's advantage over the coarsest shrinks as the multisite share grows.",
			fmt.Sprintf("the modes must agree on the crossover direction on %s.", rep.CrossoverProfile),
		},
	}
	for _, p := range rep.Profiles {
		t.AddRow(p.Profile,
			fmt.Sprintf("%.3f", p.RankBefore),
			fmt.Sprintf("%.3f", p.RankAfter),
			yn(p.Calibrated),
			yn(p.CrossPriced),
			yn(p.CrossExecuted),
			yn(p.CrossPriced == p.CrossExecuted))
	}
	if !rep.CrossoverAgrees {
		return nil, fmt.Errorf("fig-executed: priced and executed modes disagree on the fine-vs-coarse crossover direction on %s", rep.CrossoverProfile)
	}
	return t, nil
}
