// Package vclock defines the units of the engines' virtual-time accounting.
//
// The engine keeps one account per modeled core (engine.coreAccount).
// Data-structure operations and the NUMA cost model charge virtual nanoseconds
// to the account of the core that performed them, tagged with the component
// the time was spent in (transaction management, execution, communication,
// locking, logging). The harness derives throughput from committed work
// divided by the maximum per-core virtual time, and regenerates the paper's
// time-breakdown figure (Fig. 4) from the per-component totals.
package vclock

import (
	"fmt"
	"time"
)

// Nanos is a span of virtual time in nanoseconds.
type Nanos int64

// Duration converts virtual nanoseconds to a time.Duration for display.
func (n Nanos) Duration() time.Duration { return time.Duration(n) }

// Seconds converts virtual nanoseconds to floating-point seconds.
func (n Nanos) Seconds() float64 { return float64(n) / 1e9 }

// Component labels where virtual time was spent. The values mirror the
// categories of the paper's Figure 4 time breakdown.
type Component int

const (
	// Management covers transaction begin/commit/abort bookkeeping.
	Management Component = iota
	// Execution covers the useful work of actions: index probes, record
	// reads and writes.
	Execution
	// Communication covers action routing, rendezvous points and the
	// messages of distributed transactions.
	Communication
	// Locking covers lock-manager and latch work.
	Locking
	// Logging covers log-record creation and log inserts.
	Logging
	numComponents
)

// NumComponents is the number of cost components; fixed-size per-component
// cost arrays are indexed by Component.
const NumComponents = int(numComponents)

// Components lists all cost components in display order.
func Components() []Component {
	return []Component{Management, Execution, Communication, Locking, Logging}
}

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case Management:
		return "xct management"
	case Execution:
		return "xct execution"
	case Communication:
		return "communication"
	case Locking:
		return "locking"
	case Logging:
		return "logging"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Breakdown is a per-component summary of virtual time; ByComp is indexed by
// Component.
type Breakdown struct {
	Total  Nanos
	ByComp [NumComponents]Nanos
}

// Spread is the least, mean and greatest of a set of per-core clocks. Each
// simulated core keeps its own clock, so how far they drift apart is how far
// a run's commits are from one shared timeline.
type Spread struct {
	Min, Mean, Max Nanos
}

// Sample is one point of a throughput time series.
type Sample struct {
	// At is the end of the sampling window, in virtual time.
	At Nanos
	// Throughput is transactions per (virtual) second during the window.
	Throughput float64
}

// Series collects throughput samples over virtual time: the run loop reports
// commits and the series buckets them into fixed windows. It is single-owner,
// with no mutex: one engine.Run builds it and records into it on the priced
// run's one goroutine.
type Series struct {
	window Nanos
	// counts[i] is the commits of window base+i. The first and the last entry
	// are populated windows; nothing before the first commit's window is kept.
	base   int64
	counts []int64
}

// NewSeries creates a Series with the given sampling window (e.g. one virtual second).
func NewSeries(window Nanos) *Series {
	if window <= 0 {
		window = Nanos(time.Second)
	}
	return &Series{window: window}
}

// Record adds n committed transactions at virtual time t.
func (s *Series) Record(t Nanos, n int64) {
	if n <= 0 {
		return
	}
	w := int64(t) / int64(s.window)
	switch {
	case len(s.counts) == 0:
		s.base = w
	case w < s.base:
		s.counts = append(make([]int64, s.base-w, s.base-w+int64(len(s.counts))), s.counts...)
		s.base = w
	}
	i := w - s.base
	if i >= int64(len(s.counts)) {
		s.counts = append(s.counts, make([]int64, i+1-int64(len(s.counts)))...)
	}
	s.counts[i] += n
}

// Window returns the sampling window.
func (s *Series) Window() Nanos { return s.window }

// Samples returns the series ordered by time. Windows with no commits are
// included (throughput zero) between the first and last populated window so
// plots show gaps honestly.
func (s *Series) Samples() []Sample {
	if len(s.counts) == 0 {
		return nil
	}
	out := make([]Sample, len(s.counts))
	for i, count := range s.counts {
		out[i] = Sample{
			At:         Nanos((s.base + int64(i) + 1) * int64(s.window)),
			Throughput: float64(count) / s.window.Seconds(),
		}
	}
	return out
}
