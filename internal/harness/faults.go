package harness

import (
	"fmt"

	"atrapos/internal/engine"
	"atrapos/internal/fault"
	"atrapos/internal/topology"
	"atrapos/internal/workload"
)

// FaultPhase is the average throughput over one phase of the fault timeline.
type FaultPhase struct {
	Label  string
	FromS  float64
	ToS    float64
	AvgTPS float64
}

// FaultTimeline is the measured outcome of the fig-faults scenario: the
// fail→degrade→restore schedule an adaptive shared-nothing engine ran under,
// per-phase average throughput, and the asserted (not eyeballed) robustness
// facts — the dips, the recovery, the re-homed island logs, and the wiring's
// convergence at the end.
type FaultTimeline struct {
	Profile  string
	Layout   string
	Schedule string
	// Committed counts transactions committed across the whole timeline: the
	// system degrades, it does not stop.
	Committed int64
	Phases    []FaultPhase
	// DipOnDeviceFailure / DipOnSocketFailure report whether throughput fell
	// below the healthy phase while the device, respectively the socket, was
	// out. RecoveredAfterRestore reports whether it climbed back above the
	// socket-failed phase once the socket returned.
	DipOnDeviceFailure    bool
	DipOnSocketFailure    bool
	RecoveredAfterRestore bool
	// RehomedLogs counts island logs whose device binding the planner
	// re-derived across the timeline (records preserved).
	RehomedLogs int
	// Converged reports the end-of-run wiring invariant: every site on alive
	// hardware, no island log on a failed device.
	Converged bool
}

// faultTimelineSchedule is the fig-faults fault schedule on a machine with
// the given socket count and device count: a log device fails at t=10, the
// surviving device degrades 2x at t=20, a socket fails at t=30, the surviving
// device returns to healthy latency at t=38 (DegradeDevice back to factor 1)
// and the socket returns at t=40 (times in compressed paper seconds). The
// degrade window is bounded because the model's drain-based device queue is
// honest about saturation: a device held below the append rate for the rest
// of the run accumulates backlog without bound and commit latency diverges,
// so nothing would "recover" after the socket restore.
func faultTimelineSchedule(sockets, devices int) (*fault.Schedule, error) {
	return fault.NewSchedule(fault.Machine{Sockets: sockets, Devices: devices},
		fault.FailDevice(paperSecond(10), 0),
		fault.DegradeDevice(paperSecond(20), devices-1, 2),
		fault.FailSocket(paperSecond(30), topology.SocketID(sockets-1)),
		fault.DegradeDevice(paperSecond(38), devices-1, 1),
		fault.RestoreSocket(paperSecond(40), topology.SocketID(sockets-1)),
	)
}

// RunFaultTimeline executes the fig-faults scenario: an adaptive parametric
// shared-nothing engine on the device-sweep profile (chiplet-2s4d unless the
// scale pins another), island logs on one NVMe namespace per socket, under the
// fail→degrade→restore schedule. It is the data behind the fig-faults
// experiment.
func RunFaultTimeline(s Scale) (*FaultTimeline, error) {
	prof, err := s.profile(deviceSweepProfile)
	if err != nil {
		return nil, err
	}
	const layout = "nvme-per-socket"
	top := prof.Build()
	wl := workload.MultisiteUpdate(s.MicroRows, 10)
	e, err := engine.New(adaptive(engine.Config{
		Design:       engine.SharedNothing,
		IslandLevel:  topology.LevelDie,
		Workload:     wl,
		Topology:     top,
		DeviceLayout: layout,
	}))
	if err != nil {
		return nil, err
	}
	sched, err := faultTimelineSchedule(top.Sockets(), e.Devices().NumDevices())
	if err != nil {
		return nil, err
	}
	opts := s.seriesOptions(paperSecond(60))
	opts.Faults = sched
	res, err := runSeries(e, opts)
	if err != nil {
		return nil, err
	}

	// Phase averages, leaving a settle second after each fault so a phase
	// measures its steady state, not the planner's reaction latency.
	avg := func(fromS, toS float64) float64 {
		var sum float64
		var n int
		for _, sm := range res.Series {
			at := float64(sm.At) / float64(adaptiveWindow)
			if at > fromS && at <= toS {
				sum += sm.Throughput
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	phases := []FaultPhase{
		{Label: "healthy", FromS: 1, ToS: 10},
		{Label: "device-failed", FromS: 11, ToS: 20},
		{Label: "device-degraded", FromS: 21, ToS: 30},
		{Label: "socket-failed", FromS: 31, ToS: 40},
		// Ends at 55 rather than 60: the run winds down when the busiest core
		// crosses the duration, so the last few windows are sparsely populated
		// and would drag the phase average under the true steady state.
		{Label: "socket-restored", FromS: 42, ToS: 55},
	}
	for i := range phases {
		phases[i].AvgTPS = avg(phases[i].FromS, phases[i].ToS)
	}
	rehomed := 0
	for _, lc := range res.RepartitionDiffs {
		rehomed += lc.ReboundDevices
	}
	healthy, devFailed := phases[0].AvgTPS, phases[1].AvgTPS
	sockFailed, restored := phases[3].AvgTPS, phases[4].AvgTPS
	return &FaultTimeline{
		Profile:               prof.Name,
		Layout:                layout,
		Schedule:              sched.String(),
		Committed:             res.Committed,
		Phases:                phases,
		DipOnDeviceFailure:    devFailed < healthy,
		DipOnSocketFailure:    sockFailed < healthy,
		RecoveredAfterRestore: restored > sockFailed,
		RehomedLogs:           rehomed,
		Converged:             e.WiringConverged(),
	}, nil
}

// FigFaults is the fault-injection experiment: one log device fails under the
// island logs, the survivor degrades, a socket fails and later returns. The
// planner is expected to re-home the affected logs (keeping their records),
// shrink onto the surviving hardware, and re-expand when capacity comes back
// — throughput dips on each fault and recovers after the restore.
func FigFaults(s Scale) (*Table, error) {
	tl, err := RunFaultTimeline(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig-faults",
		Title:  fmt.Sprintf("Throughput across a fail→degrade→restore fault schedule (%s, %s)", tl.Profile, tl.Layout),
		Header: []string{"phase", "t (s)", "avg TPS"},
		Notes: []string{
			"schedule " + tl.Schedule,
			fmt.Sprintf("dip on device failure: %v; dip on socket failure: %v; recovered after restore: %v",
				tl.DipOnDeviceFailure, tl.DipOnSocketFailure, tl.RecoveredAfterRestore),
			fmt.Sprintf("island logs re-homed off the failed device: %d; wiring converged: %v; %d committed",
				tl.RehomedLogs, tl.Converged, tl.Committed),
		},
	}
	for _, ph := range tl.Phases {
		t.AddRow(ph.Label, fmt.Sprintf("%.0f-%.0f", ph.FromS, ph.ToS), fmt.Sprintf("%.0f", ph.AvgTPS))
	}
	return t, nil
}

// phaseTPS returns the average throughput of the named phase (0 when absent);
// the test assertions use it instead of re-deriving window math.
func (tl *FaultTimeline) phaseTPS(label string) float64 {
	for _, ph := range tl.Phases {
		if ph.Label == label {
			return ph.AvgTPS
		}
	}
	return 0
}
