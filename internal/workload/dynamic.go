package workload

import (
	"fmt"
	"math/rand"
	"time"

	"atrapos/internal/vclock"
)

// Phase is one segment of a time-varying class mix (TATPOptions.Phases): Mix
// is in force for Duration of virtual time, then the next phase's.
type Phase struct {
	// Duration is how long the phase lasts in virtual time; it must be
	// positive.
	Duration vclock.Nanos
	// Mix is the weight of each transaction class during the phase; it must
	// name at least one class, and only classes the workload defines.
	Mix map[string]float64
}

// phases is a class-mix schedule compiled when its workload is built: one
// classMix per phase. After the last phase ends the schedule cycles back to
// the first, so arbitrarily long runs keep alternating (as in Figure 13). A
// fixed mix is a schedule of one phase.
type phases struct {
	list  []Phase
	mixes []*classMix
	cycle vclock.Nanos
}

// compilePhases checks every phase against the workload's flow graphs and
// compiles its mix.
func compilePhases(list []Phase, graphs map[string]*FlowGraph) (*phases, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	p := &phases{list: list, mixes: make([]*classMix, len(list))}
	for i, ph := range list {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("phase %d has non-positive duration", i)
		}
		if len(ph.Mix) == 0 {
			return nil, fmt.Errorf("phase %d has an empty mix", i)
		}
		for class := range ph.Mix {
			if _, ok := graphs[class]; !ok {
				return nil, fmt.Errorf("phase %d names unknown class %q", i, class)
			}
		}
		p.mixes[i] = compileMix(ph.Mix)
		p.cycle += ph.Duration
	}
	return p, nil
}

// index returns the phase in force at virtual time at; negative times read
// as the first phase.
func (p *phases) index(at vclock.Nanos) int {
	if at < 0 {
		at = 0
	}
	offset := at % p.cycle
	for i, ph := range p.list {
		if offset < ph.Duration {
			return i
		}
		offset -= ph.Duration
	}
	return len(p.list) - 1
}

// weights is the class mix in force at virtual time at.
func (p *phases) weights(at vclock.Nanos) map[string]float64 { return p.list[p.index(at)].Mix }

// pick draws the class of a transaction generated at virtual time at.
func (p *phases) pick(rng *rand.Rand, at vclock.Nanos) string {
	return p.mixes[p.index(at)].pick(rng)
}

// Seconds is a convenience conversion from seconds of virtual time.
func Seconds(s float64) vclock.Nanos {
	return vclock.Nanos(s * float64(time.Second))
}

// TATPDriftingHotspot builds the continuous-drift scenario: GetSubData where
// 80% of the requests hit a 10%-wide hot window that slides across the
// subscriber space every period. A static placement is tuned for at most one
// window position; the adaptive system must keep repartitioning, and because
// only the Subscriber table carries load, every repartitioning should leave
// the other three TATP tables untouched (an incremental diff).
func TATPDriftingHotspot(subscribers int, period vclock.Nanos) (*Workload, error) {
	if period <= 0 {
		return nil, fmt.Errorf("workload: drifting hotspot needs a positive period")
	}
	w, err := TATP(TATPOptions{
		Subscribers: subscribers,
		Mix:         map[string]float64{TATPGetSubData: 1},
		Skew:        Skew{HotDataFraction: 0.1, HotAccessFraction: 0.8, DriftPeriod: period},
	})
	if err != nil {
		return nil, err
	}
	w.Name = "TATP-drifting-hotspot"
	return w, nil
}

// TATPSkewOscillation builds the skew-oscillation scenario: GetSubData that
// alternates every period between heavily skewed (60% of requests to 20% of
// the data) and uniform access, so the ideal placement flips back and forth
// between a skew-balanced one and the uniform split.
func TATPSkewOscillation(subscribers int, period vclock.Nanos) (*Workload, error) {
	if period <= 0 {
		return nil, fmt.Errorf("workload: skew oscillation needs a positive period")
	}
	w, err := TATP(TATPOptions{
		Subscribers: subscribers,
		Mix:         map[string]float64{TATPGetSubData: 1},
		Skew:        Skew{HotDataFraction: 0.2, HotAccessFraction: 0.6, OscillatePeriod: period},
	})
	if err != nil {
		return nil, err
	}
	w.Name = "TATP-skew-oscillation"
	return w, nil
}
