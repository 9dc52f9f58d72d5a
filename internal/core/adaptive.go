package core

import (
	"time"

	"atrapos/internal/vclock"
)

// IntervalConfig tunes the adaptive monitoring interval controller. The zero
// value is the paper's controller: a 1 s initial and an 8 s maximum interval.
type IntervalConfig struct {
	// Initial is the starting (and post-repartitioning) monitoring interval;
	// zero means the paper's 1 second.
	Initial vclock.Nanos
	// Max is the upper bound the interval can grow to; zero means the
	// paper's 8 seconds.
	Max vclock.Nanos
}

// The controller's fixed parameters (Section V-D): throughput within
// stableDeviation of the average of the last historyLen measurements counts
// as stable.
const (
	stableDeviation = 0.10
	historyLen      = 5
)

func (c IntervalConfig) sanitized() IntervalConfig {
	if c.Initial <= 0 {
		c.Initial = vclock.Nanos(time.Second)
	}
	if c.Max <= 0 {
		c.Max = vclock.Nanos(8 * time.Second)
	}
	if c.Max < c.Initial {
		c.Max = c.Initial
	}
	return c
}

// Decision is the outcome of one monitoring interval.
type Decision int

const (
	// KeepMonitoring means the throughput is stable: relax the interval and
	// keep going without evaluating the model.
	KeepMonitoring Decision = iota
	// Evaluate means the throughput changed beyond the threshold: aggregate
	// the traces and evaluate the cost model (which may or may not lead to a
	// repartitioning).
	Evaluate
)

// IntervalController implements the adaptive monitoring schedule of Section
// V-D: start at the initial interval, double it while the throughput stays
// within the threshold of the average of the previous measurements (up to the
// maximum), and reset it to the initial value after a repartitioning.
type IntervalController struct {
	cfg      IntervalConfig
	interval vclock.Nanos
	history  []float64
}

// NewIntervalController builds a controller with the given configuration.
func NewIntervalController(cfg IntervalConfig) *IntervalController {
	cfg = cfg.sanitized()
	return &IntervalController{cfg: cfg, interval: cfg.Initial}
}

// Interval returns the current monitoring interval.
func (c *IntervalController) Interval() vclock.Nanos { return c.interval }

// Observe feeds the throughput measured over the interval that just ended and
// returns the decision for it. Stable throughput doubles the interval (up to
// Max); a deviation beyond the threshold asks the caller to evaluate the
// model and keeps the interval unchanged until the caller reports the outcome
// via Repartitioned or Stabilized.
func (c *IntervalController) Observe(throughput float64) Decision {
	defer func() {
		c.history = append(c.history, throughput)
		if len(c.history) > historyLen {
			c.history = c.history[len(c.history)-historyLen:]
		}
	}()
	if len(c.history) == 0 {
		return KeepMonitoring
	}
	var sum float64
	for _, h := range c.history {
		sum += h
	}
	avg := sum / float64(len(c.history))
	if avg <= 0 {
		if throughput > 0 {
			return Evaluate
		}
		return KeepMonitoring
	}
	dev := (throughput - avg) / avg
	if dev < 0 {
		dev = -dev
	}
	if dev <= stableDeviation {
		c.interval *= 2
		if c.interval > c.cfg.Max {
			c.interval = c.cfg.Max
		}
		return KeepMonitoring
	}
	return Evaluate
}

// Repartitioned tells the controller that a repartitioning was executed: the
// interval resets to its initial value and the throughput history is cleared,
// so the controller stays alert while the system settles.
func (c *IntervalController) Repartitioned() {
	c.interval = c.cfg.Initial
	c.history = nil
}

// History returns a copy of the retained throughput measurements.
func (c *IntervalController) History() []float64 {
	return append([]float64(nil), c.history...)
}
