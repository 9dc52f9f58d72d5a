// Package obs is the engine's virtual-time tracing and metrics layer: one
// span ring recording where a transaction's virtual nanoseconds went, a
// planner-boundary-driven metrics time series, and a decision log explaining
// every granularity evaluation term by term.
//
// The package is built around two constraints. First, tracing must be free
// when disabled: every producer holds a *Ring (or *Tracer) that is nil when
// tracing is off, and every method is a nil-receiver no-op, so the hot path
// pays one pointer test and zero allocations. Second, recording must be
// allocation-free when enabled: the ring is pre-allocated to a fixed capacity
// at engine build, and a full ring drops new spans while counting every
// attempt, so `Dropped() == Attempts() - Len()` is an exactness invariant the
// fuzzer can check rather than silent loss.
//
// Spans are stamped with virtual time (vclock.Nanos), never wall time: a
// traced run is a pure function of its seed, so exported traces are
// bit-identical across host machines and harness parallelism.
//
// obs sits below every subsystem it observes: it imports only vclock and the
// standard library, so wal, device and engine can all hold the ring without
// an import cycle.
package obs

import (
	"fmt"

	"atrapos/internal/vclock"
)

// Kind is the span vocabulary: each value names one priced operation class.
type Kind uint8

const (
	// KindTxn is one transaction execution attempt on a coordinating core.
	KindTxn Kind = iota
	// KindLockAcquire is one lock-table acquisition (Arg=1 on conflict).
	KindLockAcquire
	// KindSyncPoint is one synchronization-point rendezvous (Arg=bytes).
	KindSyncPoint
	// KindPrepare is the voting phase of one 2PC round (Arg=participants).
	KindPrepare
	// KindCommit is the decision+completion phase of one 2PC round.
	KindCommit
	// KindWALAppend is one logical record appended to an island log.
	KindWALAppend
	// KindCoalesceFold is records folded away by the write-combining
	// accumulator since the previous physical flush (Arg=folded records).
	KindCoalesceFold
	// KindPhysFlush is one physical flush reaching the device (Arg=bytes).
	KindPhysFlush
	// KindDeviceWait is queueing delay at a log device (Arg=bytes).
	KindDeviceWait
	// KindPlannerSeal is a monitor-epoch seal at a planner boundary.
	KindPlannerSeal
	// KindPlannerScore is one granularity-model scoring pass.
	KindPlannerScore
	// KindPlannerMigrate is one adaptive migration: a placement
	// repartitioning or an island-level re-wiring (Arg=affected cores).
	KindPlannerMigrate

	numKinds
)

// String implements fmt.Stringer; the names double as trace-event names.
func (k Kind) String() string {
	switch k {
	case KindTxn:
		return "txn"
	case KindLockAcquire:
		return "lock-acquire"
	case KindSyncPoint:
		return "sync-point"
	case KindPrepare:
		return "2pc-prepare"
	case KindCommit:
		return "2pc-commit"
	case KindWALAppend:
		return "wal-append"
	case KindCoalesceFold:
		return "coalesce-fold"
	case KindPhysFlush:
		return "phys-flush"
	case KindDeviceWait:
		return "device-wait"
	case KindPlannerSeal:
		return "planner-seal"
	case KindPlannerScore:
		return "planner-score"
	case KindPlannerMigrate:
		return "planner-migrate"
	default:
		return "unknown"
	}
}

// Span is one recorded virtual-time interval. Start and Dur are virtual
// nanoseconds. Core, Site and Epoch stamp where in the machine and under
// which wiring the work happened; Class is the transaction class for KindTxn
// spans (a string from the workload's fixed class table, so recording it does
// not allocate).
type Span struct {
	Start      vclock.Nanos
	Dur        vclock.Nanos
	Kind       Kind
	Core, Site int32
	Epoch      uint32
	Arg        int64
	Class      string
}

// Ring is a fixed-capacity span buffer. Record never allocates: a full ring
// drops the new span and counts the attempt, so Dropped() is exact.
//
// A Ring is single-owner, with no mutex: every producer — the execution
// path, the island logs (a reused one carried into the next wiring
// included), the devices and the inline planner — records on a priced run's
// one goroutine. Executed runs record nothing.
type Ring struct {
	spans    []Span
	attempts int64
}

// NewRing returns a ring with storage for capacity spans, pre-allocated so
// recording never grows the buffer.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{spans: make([]Span, 0, capacity)}
}

// Record appends the span if the ring has room and counts the attempt either
// way. Safe on a nil ring (tracing disabled): it is a single-branch no-op.
func (r *Ring) Record(sp Span) {
	if r == nil {
		return
	}
	r.attempts++
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, sp)
	}
}

// Snapshot returns a copy of the recorded spans.
func (r *Ring) Snapshot() []Span {
	if r == nil {
		return nil
	}
	return append([]Span(nil), r.spans...)
}

// Len returns the number of spans held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Capacity returns the fixed capacity.
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return cap(r.spans)
}

// Attempts returns how many spans were offered to the ring.
func (r *Ring) Attempts() int64 {
	if r == nil {
		return 0
	}
	return r.attempts
}

// Dropped returns how many offered spans the full ring refused.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.attempts - int64(len(r.spans))
}

// Reset empties the ring (keeping its storage) and zeroes the attempt count.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	r.attempts = 0
}

// LevelScore is one candidate island level's priced cost, split into the
// granularity model's four terms. It mirrors core.LevelBreakdown with plain
// floats and a string level so obs does not import core (which imports the
// packages obs instruments).
type LevelScore struct {
	Level    string  `json:"level"`
	Total    float64 `json:"total"`
	Locality float64 `json:"locality"`
	TxnState float64 `json:"txn_state"`
	Commit   float64 `json:"commit"`
	Comm     float64 `json:"comm"`
}

// Decision is one granularity-planner evaluation: the full per-candidate
// score breakdown plus the verdict explaining what the planner did with it.
// Verdicts: "cooldown" (interval sat out after a recent change), "idle"
// (no transactions observed), "hardware-rebuild" (forced re-wiring off dead
// hardware), "hold-current" (current level already best), "hysteresis-hold"
// (best level within the hysteresis band) and "change".
type Decision struct {
	At         vclock.Nanos `json:"at"`
	Epoch      uint64       `json:"epoch"`
	Current    string       `json:"current"`
	Best       string       `json:"best"`
	Verdict    string       `json:"verdict"`
	Multisite  float64      `json:"multisite_share"`
	Candidates []LevelScore `json:"candidates"`
}

// Sample is one planner-boundary metrics observation.
type Sample struct {
	At              vclock.Nanos
	Epoch           uint64
	Level           string
	TPS             float64
	Committed       int64
	Aborted         int64
	MultisiteShare  float64
	CoalesceRatio   float64
	DeviceBacklogNs float64
	// Clocks is the spread of the cores' virtual clocks at the boundary.
	Clocks    vclock.Spread
	IslandTPS []float64
}

// Tracer owns the one span ring of an engine, the decision log and the
// metrics samples. Every producer records into the same ring; the Chrome
// export derives each span's track from its Kind. All accessors are
// nil-receiver safe, so a disabled engine holds a nil *Tracer and every
// producer site stays a single-branch no-op.
//
// A Tracer is single-owner like its ring: the decision log and the metrics
// series are appended to only by the inline planner of a priced run.
type Tracer struct {
	ring      *Ring
	decisions []Decision
	samples   []Sample
}

// NewTracer pre-allocates the span ring with ringCap capacity.
func NewTracer(ringCap int) *Tracer {
	return &Tracer{ring: NewRing(ringCap)}
}

// Ring returns the span ring, or nil when t is nil.
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Worker, Island, Device and Planner remain for the frozen benchmark module,
// which sums their attempts: Worker(0) is the ring and every other call is
// nil, so the sum is the ring's attempts.

// Worker returns the ring for i == 0, and nil otherwise.
func (t *Tracer) Worker(i int) *Ring {
	if i != 0 {
		return nil
	}
	return t.Ring()
}

// Island returns nil.
func (t *Tracer) Island(int) *Ring { return nil }

// Device returns nil.
func (t *Tracer) Device(int) *Ring { return nil }

// Planner returns nil.
func (t *Tracer) Planner() *Ring { return nil }

// RecordDecision appends one planner evaluation to the decision log.
func (t *Tracer) RecordDecision(d Decision) {
	if t == nil {
		return
	}
	t.decisions = append(t.decisions, d)
}

// RecordSample appends one metrics observation.
func (t *Tracer) RecordSample(s Sample) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, s)
}

// Decisions returns a copy of the decision log.
func (t *Tracer) Decisions() []Decision {
	if t == nil {
		return nil
	}
	return append([]Decision(nil), t.decisions...)
}

// Samples returns a copy of the metrics series.
func (t *Tracer) Samples() []Sample {
	if t == nil {
		return nil
	}
	return append([]Sample(nil), t.samples...)
}

// Reset empties the ring and the series so a fresh run starts clean; ring
// storage is kept.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.ring.Reset()
	t.decisions = nil
	t.samples = nil
}

// Dropped returns the ring's drop count.
func (t *Tracer) Dropped() int64 { return t.Ring().Dropped() }

// DropAccounting verifies the no-silent-loss invariant on the ring:
// dropped == attempts - held, held <= capacity, and dropped is only nonzero
// when the ring is exactly full. It returns a description of the first
// violation, or "" when the accounting is exact.
func (t *Tracer) DropAccounting() string {
	r := t.Ring()
	if r == nil {
		return ""
	}
	held, attempts, dropped := int64(r.Len()), r.Attempts(), r.Dropped()
	capn := int64(r.Capacity())
	var what string
	switch {
	case dropped != attempts-held:
		what = "dropped != attempts - held"
	case held > capn:
		what = "held > capacity"
	case dropped > 0 && held != capn:
		what = "dropped from a non-full ring"
	case dropped < 0:
		what = "negative drop count"
	default:
		return ""
	}
	return fmt.Sprintf("span ring: %s (held=%d attempts=%d dropped=%d)", what, held, attempts, dropped)
}
