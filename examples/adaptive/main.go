// Adaptive example: demonstrate the three adaptivity scenarios of the paper's
// Section VI-D on one simulated machine — a workload change, a sudden access
// skew and a processor failure — comparing a static system against ATraPos
// with monitoring and adaptive repartitioning enabled.
package main

import (
	"fmt"
	"log"

	"atrapos"
)

const (
	subscribers = 30_000
	// One "paper second" is compressed to one virtual millisecond so the
	// whole demo finishes in a few real seconds.
	paperSecond = 0.001
)

func main() {
	top, err := atrapos.NewTopology(4, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Scenario 1: workload change (Figure 10) ===")
	workloadChange(top)

	fmt.Println("\n=== Scenario 2: sudden skew (Figure 11) ===")
	suddenSkew(top)

	fmt.Println("\n=== Scenario 3: processor failure (Figure 12) ===")
	socketFailure(top)
}

func workloadChange(top *atrapos.Topology) {
	phase := atrapos.Seconds(30 * paperSecond)
	wl, err := atrapos.TATP(atrapos.TATPOptions{
		Subscribers: subscribers,
		Phases: []atrapos.Phase{
			{Duration: phase, Mix: map[string]float64{"UpdSubData": 1}},
			{Duration: phase, Mix: map[string]float64{"GetNewDest": 1}},
			{Duration: phase, Mix: map[string]float64{"GetSubData": 35, "GetNewDest": 10, "GetAccData": 35, "UpdSubData": 2, "UpdLocation": 14, "InsCallFwd": 2, "DelCallFwd": 2}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	compare(top, wl, atrapos.Seconds(90*paperSecond), nil, nil)
}

func suddenSkew(top *atrapos.Topology) {
	wl, err := atrapos.TATP(atrapos.TATPOptions{
		Subscribers: subscribers,
		Mix:         map[string]float64{"GetSubData": 1},
		Skew:        atrapos.Skew{HotDataFraction: 0.2, HotAccessFraction: 0.5, Start: atrapos.Seconds(20 * paperSecond)},
	})
	if err != nil {
		log.Fatal(err)
	}
	compare(top, wl, atrapos.Seconds(50*paperSecond), nil, nil)
}

func socketFailure(top *atrapos.Topology) {
	wl, err := atrapos.TATP(atrapos.TATPOptions{
		Subscribers: subscribers,
		Mix:         map[string]float64{"GetSubData": 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	// The last socket fails 20 "paper seconds" into the run and comes back at
	// 50: the elastic half of the scenario. The adaptive planner contracts
	// onto the surviving sockets after the failure and re-expands onto the
	// restored capacity, so its throughput recovers to near the healthy
	// level (minus the re-wiring it paid for along the way). Each system
	// needs a fresh topology so one run's failure does not leak into the
	// next.
	faults, err := atrapos.NewFaultSchedule(atrapos.FaultMachine{Sockets: top.Sockets()},
		atrapos.FailSocketFault(atrapos.Seconds(20*paperSecond), top.Sockets()-1),
		atrapos.RestoreSocketFault(atrapos.Seconds(50*paperSecond), top.Sockets()-1),
	)
	if err != nil {
		log.Fatal(err)
	}
	compare(top, wl, atrapos.Seconds(80*paperSecond), faults, []phase{
		// Phase windows skip two paper seconds after each event so the
		// adaptive planner's re-wiring settles, and the restored phase ends
		// well before the run does: duration-driven runs taper off toward the
		// end as cores drain at different virtual times, and that wind-down
		// would otherwise drag the average.
		{"healthy", 2, 20},
		{"socket failed", 22, 50},
		{"socket restored", 52, 60},
	})
}

// phase labels a window of the run, in paper seconds, for the per-phase
// throughput printout of the failure scenario.
type phase struct {
	label      string
	fromS, toS float64
}

// phaseTPS averages the sample windows that fall inside (from, to].
func phaseTPS(res *atrapos.Result, p phase) float64 {
	from := atrapos.Seconds(p.fromS * paperSecond)
	to := atrapos.Seconds(p.toS * paperSecond)
	var sum float64
	var n int
	for _, s := range res.Series {
		if s.At > from && s.At <= to {
			sum += s.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// compare runs the workload on a static ATraPos system and on an adaptive one
// and prints their average throughput plus the adaptive system's
// repartitioning activity. When phases are given, both systems also get a
// per-phase throughput breakdown.
func compare(top *atrapos.Topology, wl *atrapos.Workload, duration atrapos.VirtualTime, faults *atrapos.FaultSchedule, phases []phase) {
	run := func(adaptive bool) *atrapos.Result {
		freshTop, err := atrapos.NewTopology(top.Sockets(), top.CoresPerSocket())
		if err != nil {
			log.Fatal(err)
		}
		sys, err := atrapos.Open(atrapos.Options{
			Design:   atrapos.DesignATraPos,
			Workload: wl,
			Topology: freshTop,
			Adaptive: adaptive,
			// The paper's 1 s / 8 s monitoring intervals, mapped onto the
			// compressed time scale of the demo.
			AdaptiveInterval: atrapos.IntervalConfig{
				Initial: atrapos.Seconds(paperSecond),
				Max:     atrapos.Seconds(8 * paperSecond),
			},
			TimeCompression: 1 / paperSecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(atrapos.RunOptions{
			Duration:     duration,
			Seed:         5,
			SampleWindow: atrapos.Seconds(paperSecond),
			Faults:       faults,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	static := run(false)
	adaptive := run(true)
	fmt.Printf("  static : %8.0f TPS over %d samples\n", static.ThroughputTPS, len(static.Series))
	fmt.Printf("  atrapos: %8.0f TPS over %d samples, %d repartitioning(s), %.2f ms repartitioning time\n",
		adaptive.ThroughputTPS, len(adaptive.Series), adaptive.Repartitions, adaptive.RepartitionTime.Seconds()*1e3)
	if adaptive.ThroughputTPS > static.ThroughputTPS {
		fmt.Printf("  -> adaptation gained %.0f%%\n", (adaptive.ThroughputTPS/static.ThroughputTPS-1)*100)
	}
	for _, p := range phases {
		fmt.Printf("  %-15s (%2.0f-%2.0fs): static %8.0f TPS, atrapos %8.0f TPS\n",
			p.label, p.fromS, p.toS, phaseTPS(static, p), phaseTPS(adaptive, p))
	}
}
