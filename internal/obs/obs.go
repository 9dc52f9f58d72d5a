// Package obs is the engine's virtual-time tracing and metrics layer: span
// rings recording where a transaction's virtual nanoseconds went, a
// planner-boundary-driven metrics time series, and a decision log explaining
// every granularity evaluation term by term.
//
// The package is built around two constraints. First, tracing must be free
// when disabled: every producer holds a *Ring (or *Tracer) that is nil when
// tracing is off, and every method is a nil-receiver no-op, so the hot path
// pays one pointer test and zero allocations. Second, recording must be
// allocation-free when enabled: rings are pre-allocated to a fixed capacity
// at engine build, and a full ring drops new spans while counting every
// attempt, so `Dropped() == Attempts() - Len()` is an exactness invariant the
// fuzzer can check rather than silent loss.
//
// Spans are stamped with virtual time (vclock.Nanos), not wall time: a traced
// run is a pure function of its seed, so exported traces are bit-identical
// across host machines and harness parallelism. The one exception is the
// executed backend's measured operations, whose timestamps are wall
// nanoseconds by definition; they are excluded from determinism oracles.
//
// obs sits below every subsystem it observes: it imports only vclock and the
// standard library, so wal, device, backend and engine can all hold rings
// without an import cycle.
package obs

import (
	"sync"

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
	// KindBackendOp is one shipped batch served on its owner's executor
	// (wall-ns timestamps; Arg=operations carried, a commit record included).
	KindBackendOp
	// KindPlannerSeal is a monitor-epoch seal at a planner boundary.
	KindPlannerSeal
	// KindPlannerScore is one granularity-model scoring pass.
	KindPlannerScore
	// KindPlannerRewire is one online island-level re-wiring (Arg=epoch).
	KindPlannerRewire
	// KindPlannerRepartition is one adaptive placement migration.
	KindPlannerRepartition

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
	case KindBackendOp:
		return "backend-op"
	case KindPlannerSeal:
		return "planner-seal"
	case KindPlannerScore:
		return "planner-score"
	case KindPlannerRewire:
		return "planner-rewire"
	case KindPlannerRepartition:
		return "planner-repartition"
	default:
		return "unknown"
	}
}

// Span is one recorded virtual-time interval. Start and Dur are virtual
// nanoseconds (wall nanoseconds only for KindBackendOp). Worker, Core, Site
// and Epoch stamp where in the machine and under which wiring the work
// happened; Class is the transaction class for KindTxn spans (a string from
// the workload's fixed class table, so recording it does not allocate).
type Span struct {
	Start              vclock.Nanos
	Dur                vclock.Nanos
	Kind               Kind
	Worker, Core, Site int32
	Epoch              uint32
	Arg                int64
	Class              string
}

// Ring is a fixed-capacity span buffer. Record never allocates: a full ring
// drops the new span and counts the attempt, so Dropped() is exact. The ring
// carries its own mutex because some producers are shared across owners —
// a reused island log serves two wirings during a level change, and the
// planner goroutine records into island rings concurrently with workers.
type Ring struct {
	mu       sync.Mutex
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
	r.mu.Lock()
	r.attempts++
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, sp)
	}
	r.mu.Unlock()
}

// Snapshot returns a copy of the recorded spans.
func (r *Ring) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len returns the number of spans held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts
}

// Dropped returns how many offered spans the full ring refused.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts - int64(len(r.spans))
}

// Reset empties the ring (keeping its storage) and zeroes the attempt count.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.attempts = 0
	r.mu.Unlock()
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
	ConflictRate    float64
	MultisiteShare  float64
	CoalesceRatio   float64
	DeviceBacklogNs float64
	IslandTPS       []float64
}

// Tracer owns every ring and series of one engine: per-worker rings for
// execution-path spans, per-island rings for WAL activity, per-device rings
// for queue waits, one planner ring, the decision log and the metrics
// samples. All accessors are nil-receiver safe, so a disabled engine holds a
// nil *Tracer and every producer site stays a single-branch no-op.
type Tracer struct {
	workers []*Ring
	islands []*Ring
	devices []*Ring
	planner *Ring

	mu        sync.Mutex
	decisions []Decision
	samples   []Sample
}

// NewTracer pre-allocates rings: one per worker slot (indexed by core),
// one per island slot, one per device, and one for the planner, each with
// ringCap capacity.
func NewTracer(workers, islands, devices, ringCap int) *Tracer {
	t := &Tracer{
		workers: make([]*Ring, workers),
		islands: make([]*Ring, islands),
		devices: make([]*Ring, devices),
		planner: NewRing(ringCap),
	}
	for i := range t.workers {
		t.workers[i] = NewRing(ringCap)
	}
	for i := range t.islands {
		t.islands[i] = NewRing(ringCap)
	}
	for i := range t.devices {
		t.devices[i] = NewRing(ringCap)
	}
	return t
}

// Worker returns worker slot i's ring, or nil when t is nil or i is out of
// range.
func (t *Tracer) Worker(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.workers) {
		return nil
	}
	return t.workers[i]
}

// Island returns island slot i's ring, or nil.
func (t *Tracer) Island(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.islands) {
		return nil
	}
	return t.islands[i]
}

// Device returns device i's ring, or nil.
func (t *Tracer) Device(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.devices) {
		return nil
	}
	return t.devices[i]
}

// Planner returns the planner ring, or nil.
func (t *Tracer) Planner() *Ring {
	if t == nil {
		return nil
	}
	return t.planner
}

// RecordDecision appends one planner evaluation to the decision log.
func (t *Tracer) RecordDecision(d Decision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.decisions = append(t.decisions, d)
	t.mu.Unlock()
}

// RecordSample appends one metrics observation.
func (t *Tracer) RecordSample(s Sample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// Decisions returns a copy of the decision log.
func (t *Tracer) Decisions() []Decision {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Decision(nil), t.decisions...)
}

// Samples returns a copy of the metrics series.
func (t *Tracer) Samples() []Sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Sample(nil), t.samples...)
}

// Reset empties every ring and series so a fresh run starts clean; ring
// storage is kept.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for _, r := range t.workers {
		r.Reset()
	}
	for _, r := range t.islands {
		r.Reset()
	}
	for _, r := range t.devices {
		r.Reset()
	}
	t.planner.Reset()
	t.mu.Lock()
	t.decisions = nil
	t.samples = nil
	t.mu.Unlock()
}

// rings iterates every ring with a stable label, in a fixed order.
func (t *Tracer) rings(fn func(group string, idx int, r *Ring)) {
	if t == nil {
		return
	}
	for i, r := range t.workers {
		fn("worker", i, r)
	}
	for i, r := range t.islands {
		fn("island", i, r)
	}
	for i, r := range t.devices {
		fn("device", i, r)
	}
	fn("planner", 0, t.planner)
}

// Dropped sums the drop counters of every ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var total int64
	t.rings(func(_ string, _ int, r *Ring) { total += r.Dropped() })
	return total
}

// DropAccounting verifies the no-silent-loss invariant on every ring:
// dropped == attempts - held, held <= capacity, and dropped is only nonzero
// when the ring is exactly full. It returns a description of the first
// violation, or "" when the accounting is exact.
func (t *Tracer) DropAccounting() string {
	if t == nil {
		return ""
	}
	var violation string
	t.rings(func(group string, idx int, r *Ring) {
		if violation != "" || r == nil {
			return
		}
		held, attempts, dropped := int64(r.Len()), r.Attempts(), r.Dropped()
		capn := int64(r.Capacity())
		switch {
		case dropped != attempts-held:
			violation = ringViolation(group, idx, "dropped != attempts - held", held, attempts, dropped)
		case held > capn:
			violation = ringViolation(group, idx, "held > capacity", held, attempts, dropped)
		case dropped > 0 && held != capn:
			violation = ringViolation(group, idx, "dropped from a non-full ring", held, attempts, dropped)
		case dropped < 0:
			violation = ringViolation(group, idx, "negative drop count", held, attempts, dropped)
		}
	})
	return violation
}
