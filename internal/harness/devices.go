package harness

import (
	"fmt"
	"strconv"

	"atrapos/internal/device"
	"atrapos/internal/topology"
)

// deviceSweepProfile is the machine the device-layout experiments run on by
// default: the chiplet profile, whose machine distinguishes all four island
// levels.
const deviceSweepProfile = "chiplet-2s4d"

// profile resolves the machine profile an experiment runs on: the scale's
// pinned profile when set, the experiment's own default otherwise. An unknown
// pinned name errors rather than silently running on a different machine than
// the points claim.
func (s Scale) profile(def string) (topology.Profile, error) {
	name := def
	if s.Profile != "" {
		name = s.Profile
	}
	p, ok := topology.ProfileByName(name)
	if !ok {
		return topology.Profile{}, fmt.Errorf("harness: unknown machine profile %q", name)
	}
	return p, nil
}

// deviceSweepLayouts returns the storage shapes the sweep compares, most
// parallel first: the device count drops from one per socket to a single
// machine-wide device.
func deviceSweepLayouts() []string {
	return []string{"nvme-per-socket", "nvme-per-die-pair", "single-sata"}
}

// deviceCount is how many devices a layout provisions on a machine (0 without
// device modeling).
func deviceCount(layout string, top *topology.Topology) int {
	lay, ok := device.LayoutByName(layout)
	if !ok {
		return 0
	}
	return lay.Build(top).NumDevices()
}

// FigLogDevices is the heterogeneous log-device sweep: on one machine it
// binds the shared-nothing island logs to progressively scarcer storage
// shapes — one NVMe namespace per socket, a shared device per die pair, a
// single SATA-class device — and measures every island granularity at every
// multisite probability. The expected shape: with plentiful devices, coarse
// wirings are penalized for funnelling every group commit through one flush
// path while fine wirings spread them, so the fine-vs-coarse crossover sits
// at a higher multisite share than it does when a single device serializes
// every level's commits equally.
func FigLogDevices(s Scale) (*Table, error) {
	grid, err := deviceSweep(s, []int{0, 50, 100})
	if err != nil {
		return nil, err
	}
	return levelTable(&Table{
		ID:     "fig-log-devices",
		Title:  fmt.Sprintf("Throughput by log-device layout, island granularity and multisite probability (%s)", grid[0][0].prof.Name),
		Header: []string{"layout", "devices", "% multi-site"},
		Notes: []string{
			"Island logs bind to the layout's devices through their home die; '-' marks levels the machine does not distinguish.",
			"Expected shift: scarcer devices erase the fine-island flush advantage, so the crossover moves toward coarser islands at lower multisite shares.",
		},
	}, grid, func(row []point) []string {
		return []string{row[0].layout, strconv.Itoa(deviceCount(row[0].layout, row[0].prof.Build())), strconv.Itoa(row[0].pct)}
	}), nil
}

// deviceSweep measures the log-device grid on the sweep profile: every
// layout at every multisite probability, one row each.
func deviceSweep(s Scale, pcts []int) ([][]point, error) {
	prof, err := s.profile(deviceSweepProfile)
	if err != nil {
		return nil, err
	}
	var rows []cell
	for _, layout := range deviceSweepLayouts() {
		for _, pct := range pcts {
			rows = append(rows, cell{prof: prof, layout: layout, pct: pct})
		}
	}
	return runGrid(s, "fig-log-devices", levelGrid(s, rows))
}
