package workload

import (
	"fmt"
	"time"

	"atrapos/internal/vclock"
)

// Phase is one segment of a time-varying workload: the given class mix is
// active for Duration of virtual time.
type Phase struct {
	// Label names the phase in reports ("A", "B", "UpdSubData only", ...).
	Label string
	// Duration is how long the phase lasts in virtual time.
	Duration vclock.Nanos
	// Mix is the class mix active during the phase.
	Mix map[string]float64
}

// Schedule turns a list of phases into a mix function of virtual time. After
// the last phase ends the schedule cycles back to the first phase, so
// arbitrarily long runs keep alternating (as in Figure 13).
func Schedule(phases []Phase) (func(at vclock.Nanos) map[string]float64, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: empty schedule")
	}
	var total vclock.Nanos
	for i, p := range phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("workload: phase %d has non-positive duration", i)
		}
		if len(p.Mix) == 0 {
			return nil, fmt.Errorf("workload: phase %d has an empty mix", i)
		}
		total += p.Duration
	}
	return func(at vclock.Nanos) map[string]float64 {
		if at < 0 {
			at = 0
		}
		offset := at % total
		for _, p := range phases {
			if offset < p.Duration {
				return p.Mix
			}
			offset -= p.Duration
		}
		return phases[len(phases)-1].Mix
	}, nil
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
