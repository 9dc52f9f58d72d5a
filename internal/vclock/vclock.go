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
	"sort"
	"sync"
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

// Breakdown is a per-component summary of virtual time.
type Breakdown struct {
	Total  Nanos
	ByComp map[Component]Nanos
}

// Sample is one point of a throughput time series.
type Sample struct {
	// At is the end of the sampling window, in virtual time.
	At Nanos
	// Throughput is transactions per (virtual) second during the window.
	Throughput float64
}

// Series collects throughput samples over virtual time. It is safe for
// concurrent use; workers report commits and the series buckets them into
// fixed windows.
type Series struct {
	mu     sync.Mutex
	window Nanos
	counts map[int64]int64
}

// NewSeries creates a Series with the given sampling window (e.g. one virtual second).
func NewSeries(window Nanos) *Series {
	if window <= 0 {
		window = Nanos(time.Second)
	}
	return &Series{window: window, counts: make(map[int64]int64)}
}

// Record adds n committed transactions at virtual time t.
func (s *Series) Record(t Nanos, n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.counts[int64(t)/int64(s.window)] += n
	s.mu.Unlock()
}

// Window returns the sampling window.
func (s *Series) Window() Nanos { return s.window }

// Samples returns the series ordered by time. Windows with no commits are
// included (throughput zero) between the first and last populated window so
// plots show gaps honestly.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counts) == 0 {
		return nil
	}
	keys := make([]int64, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	first, last := keys[0], keys[len(keys)-1]
	out := make([]Sample, 0, last-first+1)
	for w := first; w <= last; w++ {
		count := s.counts[w]
		out = append(out, Sample{
			At:         Nanos((w + 1) * int64(s.window)),
			Throughput: float64(count) / s.window.Seconds(),
		})
	}
	return out
}
