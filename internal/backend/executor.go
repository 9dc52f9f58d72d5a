package backend

import (
	"time"

	"atrapos/internal/obs"
	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

// Request op codes for the inter-executor ship protocol.
const (
	opGet uint8 = iota
	opPut
	opDelete
	opCommit
	opIncrement
)

// Request is one shipped storage operation. An executor owns exactly one
// reusable Request (its out field), so shipping allocates nothing in steady
// state: the sender fills its out, hands the pointer to the owner's inbox,
// and blocks on its own reply channel until the owner writes the result back
// into the same struct and signals it.
type Request struct {
	op    uint8
	table int32
	shard int32
	txn   uint64
	key   schema.Key
	val   uint64
	ok    bool
	from  *Executor
}

// ExecStats are one executor's per-run wall-time counters, in nanoseconds.
// OpNs is time inside local index/log operations; ShipNs is time blocked on
// remote owners (minus time spent serving peers while waiting); ServeNs is
// time executing peers' shipped operations.
type ExecStats struct {
	Ops     int64
	Ships   int64
	Serves  int64
	OpNs    int64
	ShipNs  int64
	ServeNs int64
	LogNs   int64
}

// Executor is the single owner of one island's shards: all index mutations on
// those shards happen on its goroutine. The goroutine is an ordinary one — Go
// offers no CPU affinity, and locking it to a floating OS thread only turned
// every blocking channel hop into a futex park plus a P hand-off (DESIGN.md
// section 15) — so what the wiring prescribes is ownership, not placement.
// Cross-island operations are shipped to the owner over a bounded channel;
// while an executor waits for its own reply it keeps serving its inbox, so a
// cycle of mutual ships cannot deadlock (each executor has at most one
// outstanding ship).
type Executor struct {
	id int
	b  *HashBackend

	in    chan *Request
	reply chan *Request
	out   Request

	Stats ExecStats

	// trace is the span ring shipped-operation service is recorded into.
	// Backend spans carry *wall* nanoseconds (the executed path measures real
	// time), so they are excluded from virtual-time determinism oracles; nil
	// records nothing.
	trace *obs.Ring
}

// SetTrace attaches (or, with a nil ring, detaches) the executor's span ring.
// Call it before the executor starts serving; serve reads it unguarded.
func (e *Executor) SetTrace(r *obs.Ring) { e.trace = r }

// NewExecutors builds one executor per island and wires their inboxes. The
// inbox capacity is the executor count: every peer can have its single
// outstanding request parked there without blocking the owner's send.
func NewExecutors(b *HashBackend) []*Executor {
	n := b.Islands()
	execs := make([]*Executor, n)
	for i := range execs {
		execs[i] = &Executor{
			id:    i,
			b:     b,
			in:    make(chan *Request, n),
			reply: make(chan *Request, 1),
		}
	}
	b.execs = execs
	return execs
}

// Pin runs fn on the calling goroutine and adds nothing — no thread lock, no
// affinity. It exists only because the frozen benchmark/replay.go wraps its
// executor loops in it (ROADMAP, "For the next benchmark-archetype PR").
func (e *Executor) Pin(fn func()) { fn() }

// ID returns the executor's island index.
func (e *Executor) ID() int { return e.id }

// serve executes a shipped request against this executor's shards and hands
// it back to the sender, accounting the wall time under ServeNs.
func (e *Executor) serve(r *Request) {
	t0 := time.Now()
	op := r.op
	e.serveOp(r)
	d := time.Since(t0).Nanoseconds()
	e.Stats.ServeNs += d
	e.trace.Record(obs.Span{Start: vclock.Nanos(t0.UnixNano()), Dur: vclock.Nanos(d),
		Kind: obs.KindBackendOp, Site: int32(e.id), Arg: int64(op)})
}

func (e *Executor) serveOp(r *Request) {
	switch r.op {
	case opGet:
		r.val, r.ok = e.b.Get(int(r.shard), int(r.table), r.key)
	case opPut:
		e.b.Put(int(r.shard), int(r.table), r.key, r.txn, r.val)
		r.ok = true
	case opDelete:
		r.ok = e.b.Delete(int(r.shard), int(r.table), r.key, r.txn)
	case opIncrement:
		r.val = e.b.Increment(int(r.shard), int(r.table), r.key, r.txn)
		r.ok = true
	case opCommit:
		// val carries the committer's wall offset so the owner's group-commit
		// deadline advances with real time.
		e.b.Commit(e.id, r.txn, vclock.Nanos(r.val))
		r.ok = true
	}
	r.from.reply <- r
}

// Serve blocks on the inbox, executing peers' shipped operations, until stop
// closes. Executors that finish their own work loop early enter this phase so
// slower peers can still ship to them; the caller closes stop only after every
// work loop has returned (at which point no ship can be in flight, since each
// ship completes synchronously before its sender proceeds).
func (e *Executor) Serve(stop <-chan struct{}) {
	for {
		select {
		case r := <-e.in:
			e.Stats.Serves++
			e.serve(r)
		case <-stop:
			e.Poll()
			return
		}
	}
}

// Poll drains the inbox without blocking; the engine calls it between
// transactions so remote requests never wait for a full local transaction.
func (e *Executor) Poll() {
	for {
		select {
		case r := <-e.in:
			e.Stats.Serves++
			e.serve(r)
		default:
			return
		}
	}
}

// ship sends the executor's out request to the owner and waits for the reply,
// serving its own inbox in the meantime. Returns the same request, completed.
// The wait (minus any time spent serving peers, which serve accounts
// separately) lands in ShipNs — the executed analogue of the priced model's
// message round-trip.
func (e *Executor) ship(owner *Executor) *Request {
	e.Stats.Ships++
	e.out.from = e
	t0 := time.Now()
	served := e.Stats.ServeNs
	owner.in <- &e.out
	for {
		select {
		case r := <-e.reply:
			e.Stats.ShipNs += time.Since(t0).Nanoseconds() - (e.Stats.ServeNs - served)
			return r
		case r := <-e.in:
			e.Stats.Serves++
			e.serve(r)
		}
	}
}

// Get reads (table, key) from shard, locally when this executor owns it,
// otherwise shipped to the owner.
func (e *Executor) Get(shard, table int, key schema.Key) (uint64, bool) {
	owner := e.b.Owner(shard)
	if owner == e.id {
		return e.b.Get(shard, table, key)
	}
	e.out = Request{op: opGet, table: int32(table), shard: int32(shard), key: key}
	r := e.ship(e.b.execs[owner])
	return r.val, r.ok
}

// Put writes (table, key) = val on behalf of txn.
func (e *Executor) Put(shard, table int, key schema.Key, txn, val uint64) {
	owner := e.b.Owner(shard)
	if owner == e.id {
		e.b.Put(shard, table, key, txn, val)
		return
	}
	e.out = Request{op: opPut, table: int32(table), shard: int32(shard), txn: txn, key: key, val: val}
	e.ship(e.b.execs[owner])
}

// Increment adds one to (table, key) on behalf of txn and returns the new
// value. The read-modify-write runs on the owner as one operation, so it is
// atomic against every other operation on the shard, and a remote one costs
// one ship, not a Get and a Put.
func (e *Executor) Increment(shard, table int, key schema.Key, txn uint64) uint64 {
	owner := e.b.Owner(shard)
	if owner == e.id {
		return e.b.Increment(shard, table, key, txn)
	}
	e.out = Request{op: opIncrement, table: int32(table), shard: int32(shard), txn: txn, key: key}
	return e.ship(e.b.execs[owner]).val
}

// Delete removes (table, key) on behalf of txn.
func (e *Executor) Delete(shard, table int, key schema.Key, txn uint64) bool {
	owner := e.b.Owner(shard)
	if owner == e.id {
		return e.b.Delete(shard, table, key, txn)
	}
	e.out = Request{op: opDelete, table: int32(table), shard: int32(shard), txn: txn, key: key}
	r := e.ship(e.b.execs[owner])
	return r.ok
}

// CommitRemote ships txn's commit record to a participant island's log —
// the decision round-trip of a multi-island transaction. now is the
// committer's wall offset in nanoseconds.
func (e *Executor) CommitRemote(island int, txn uint64, nowNs int64) {
	if island == e.id {
		e.b.Commit(e.id, txn, vclock.Nanos(nowNs))
		return
	}
	e.out = Request{op: opCommit, txn: txn, val: uint64(nowNs)}
	e.ship(e.b.execs[island])
}

// CommitLocal appends txn's commit record to this executor's own island log.
func (e *Executor) CommitLocal(txn uint64, nowNs int64) {
	e.b.Commit(e.id, txn, vclock.Nanos(nowNs))
}
