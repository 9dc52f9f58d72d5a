package harness

import (
	"strconv"

	"atrapos/internal/topology"
)

// islandSweepProfiles returns the machine profiles the islands experiment
// sweeps: a commodity 2-socket box, a chiplet machine with sub-socket
// structure, and a 4-socket box — three distinct island shapes. When the
// scale pins a profile it is added to the sweep (if not already present), so
// `-profile paper-8s -experiment fig-islands` compares the paper's machine
// against the defaults.
func islandSweepProfiles(s Scale) []topology.Profile {
	names := []string{"2s-fc", "chiplet-2s4d", "4s-fc"}
	if s.Profile != "" {
		found := false
		for _, n := range names {
			if n == s.Profile {
				found = true
			}
		}
		if !found {
			names = append(names, s.Profile)
		}
	}
	out := make([]topology.Profile, 0, len(names))
	for _, n := range names {
		if p, ok := topology.ProfileByName(n); ok {
			out = append(out, p)
		}
	}
	return out
}

// FigIslands is the island-size sweep that motivates the islands line of
// work: on every machine profile it deploys the parametric shared-nothing
// design at each island granularity the machine distinguishes (core, die,
// socket, machine) and sweeps the probability of multisite transactions. The
// expected shape is a crossover: with no multisite work the finest islands
// win (perfect locality, no coordination), and as the multisite probability
// grows, coarser islands win because fewer transactions cross instance
// boundaries — at machine granularity none do, at the price of shared
// system-state structures.
func FigIslands(s Scale) (*Table, error) {
	var rows []cell
	for _, prof := range islandSweepProfiles(s) {
		for _, pct := range []int{0, 25, 50, 100} {
			rows = append(rows, cell{prof: prof, pct: pct})
		}
	}
	grid, err := runGrid(s, "fig-islands", levelGrid(s, rows))
	if err != nil {
		return nil, err
	}
	return levelTable(&Table{
		ID:     "fig-islands",
		Title:  "Throughput by island granularity, machine profile and multisite probability",
		Header: []string{"profile", "% multi-site"},
		Notes: []string{
			"One shared-nothing instance per island at each granularity; '-' marks levels the profile's machine does not distinguish.",
			"Expected crossover: fine islands win at low multisite probability, coarse islands win as it grows.",
		},
	}, grid, func(row []point) []string {
		return []string{row[0].prof.Name, strconv.Itoa(row[0].pct)}
	}), nil
}
