package backend

import (
	"time"

	"atrapos/internal/obs"
	"atrapos/internal/schema"
	"atrapos/internal/vclock"
)

// Op names a storage operation in a shipped batch.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpIncrement
)

// batchOp is one operation of a shipped batch. val carries a Put's value in
// and a Get's or Increment's result out; ok reports a Get's hit or a Delete's
// presence. The owner writes the results back in place.
type batchOp struct {
	op    Op
	ok    bool
	table int32
	shard int32
	key   schema.Key
	val   uint64
}

// ownerBatch is what one executor has staged for one owner on behalf of its
// current transaction: the operations in generation order, and whether any of
// them writes (the owner's commit record then rides the same message).
type ownerBatch struct {
	ops    []batchOp
	commit bool
}

// Request is the one message of the ship protocol: the operations one
// transaction has for one remote owner, in order, plus — when commit is set —
// the transaction's commit record for the owner's value log, stamped with the
// committer's wall offset nowNs so the owner's group-commit deadline advances
// with real time. An executor owns exactly one reusable Request (its out
// field) and the ops slice points into its own staging buffers, so shipping
// allocates nothing in steady state: the sender fills out, hands the pointer
// to the owner's inbox, and blocks on its own reply channel until the owner
// has written the results back into ops and signalled it.
type Request struct {
	txn    uint64
	ops    []batchOp
	commit bool
	nowNs  int64
	from   *Executor
}

// carried counts what the message carries: its operations, and the commit
// record as one more.
func (r *Request) carried() int64 {
	n := int64(len(r.ops))
	if r.commit {
		n++
	}
	return n
}

// ExecStats are one executor's per-run counters. Ships and Serves count
// messages sent and served; ShippedOps counts what the sent messages carried
// (operations, and commit records as one each). ShipNs is wall nanoseconds
// blocked on remote owners (minus time spent serving peers while waiting);
// ServeNs is wall nanoseconds executing peers' shipped batches.
type ExecStats struct {
	Ships      int64
	ShippedOps int64
	Serves     int64
	ShipNs     int64
	ServeNs    int64
}

// Executor is the single owner of one island's shards: all index mutations on
// those shards happen on its goroutine. The goroutine is an ordinary one — Go
// offers no CPU affinity, and locking it to a floating OS thread only turned
// every blocking channel hop into a futex park plus a P hand-off (DESIGN.md
// section 15) — so what the wiring prescribes is ownership, not placement.
// Cross-island operations are shipped to the owner over a bounded channel,
// one message per (transaction, owner): the engine stages a transaction's
// remote operations (Stage) and ships them after its local commit
// (ShipStaged). While an executor waits for its own reply it keeps serving
// its inbox, so a cycle of mutual ships cannot deadlock (each executor has at
// most one outstanding ship).
type Executor struct {
	id int
	b  *HashBackend

	in    chan *Request
	reply chan *Request
	out   Request

	// staged holds the current transaction's remote operations per owner;
	// touched lists the owners with something staged, in first-use order.
	// one backs the single-operation ships of Get/Put/Increment/Delete.
	staged  []ownerBatch
	touched []int32
	one     [1]batchOp

	Stats ExecStats

	// trace is the span ring shipped-batch service is recorded into.
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
			id:      i,
			b:       b,
			in:      make(chan *Request, n),
			reply:   make(chan *Request, 1),
			staged:  make([]ownerBatch, n),
			touched: make([]int32, 0, n),
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

// apply runs one operation on this executor's own shards and writes the
// result back into it.
func (e *Executor) apply(o *batchOp, txn uint64) {
	switch o.op {
	case OpGet:
		o.val, o.ok = e.b.Get(int(o.shard), int(o.table), o.key)
	case OpPut:
		e.b.Put(int(o.shard), int(o.table), o.key, txn, o.val)
		o.ok = true
	case OpDelete:
		o.ok = e.b.Delete(int(o.shard), int(o.table), o.key, txn)
	case OpIncrement:
		o.val = e.b.Increment(int(o.shard), int(o.table), o.key, txn)
		o.ok = true
	}
}

// serve executes a shipped batch against this executor's shards — its
// operations in order, then the commit record if it carries one — and hands
// it back to the sender, accounting the wall time under ServeNs.
func (e *Executor) serve(r *Request) {
	e.Stats.Serves++
	t0 := time.Now()
	for i := range r.ops {
		e.apply(&r.ops[i], r.txn)
	}
	if r.commit {
		e.b.Commit(e.id, r.txn, vclock.Nanos(r.nowNs))
	}
	carried := r.carried()
	// The sender owns r again once the reply is sent; nothing below reads it.
	r.from.reply <- r
	d := time.Since(t0).Nanoseconds()
	e.Stats.ServeNs += d
	e.trace.Record(obs.Span{Start: vclock.Nanos(t0.UnixNano()), Dur: vclock.Nanos(d),
		Kind: obs.KindBackendOp, Site: int32(e.id), Arg: carried})
}

// Serve blocks on the inbox, executing peers' shipped batches, until stop
// closes. Executors that finish their own work loop early enter this phase so
// slower peers can still ship to them; the caller closes stop only after every
// work loop has returned (at which point no ship can be in flight, since each
// ship completes synchronously before its sender proceeds).
func (e *Executor) Serve(stop <-chan struct{}) {
	for {
		select {
		case r := <-e.in:
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
			e.serve(r)
		default:
			return
		}
	}
}

// ship sends the executor's out request to the owner and waits for the reply,
// serving its own inbox in the meantime. The wait (minus any time spent
// serving peers, which serve accounts separately) lands in ShipNs — the
// executed analogue of the priced model's message round-trip.
func (e *Executor) ship(owner int) {
	e.Stats.Ships++
	e.Stats.ShippedOps += e.out.carried()
	e.out.from = e
	t0 := time.Now()
	served := e.Stats.ServeNs
	e.b.execs[owner].in <- &e.out
	for {
		select {
		case <-e.reply:
			e.Stats.ShipNs += time.Since(t0).Nanoseconds() - (e.Stats.ServeNs - served)
			return
		case r := <-e.in:
			e.serve(r)
		}
	}
}

// Stage queues one operation of the current transaction for the remote owner
// of shard; ShipStaged sends it. Operations staged for one owner keep their
// order; nothing is promised between owners. val is a Put's value. A shard
// this executor owns has nobody to wait for and is applied at once.
func (e *Executor) Stage(op Op, shard, table int, key schema.Key, txn, val uint64) {
	o := batchOp{op: op, table: int32(table), shard: int32(shard), key: key, val: val}
	owner := e.b.Owner(shard)
	if owner == e.id {
		e.apply(&o, txn)
		return
	}
	sb := &e.staged[owner]
	if len(sb.ops) == 0 {
		e.touched = append(e.touched, int32(owner))
	}
	sb.ops = append(sb.ops, o)
	// Every operation but a read appends to the owner's value log, which
	// makes the owner a write participant.
	sb.commit = sb.commit || op != OpGet
}

// ShipStaged sends txn's staged operations, one synchronous message per
// remote owner: the owner applies them in order and, if any of them writes,
// appends txn's commit record to its own value log right behind them — the
// decision round-trip of a multi-island transaction riding the same message.
// nowNs is the committer's wall offset. The engine calls it after
// CommitLocal, so a participant's commit record never precedes the home
// island's.
func (e *Executor) ShipStaged(txn uint64, nowNs int64) {
	for _, owner := range e.touched {
		sb := &e.staged[owner]
		e.out = Request{txn: txn, ops: sb.ops, commit: sb.commit, nowNs: nowNs}
		e.ship(int(owner))
		sb.ops, sb.commit = sb.ops[:0], false
	}
	e.touched = e.touched[:0]
}

// shipOne ships a single operation to its owner and returns it completed.
func (e *Executor) shipOne(owner int, txn uint64, o batchOp) *batchOp {
	e.one[0] = o
	e.out = Request{txn: txn, ops: e.one[:]}
	e.ship(owner)
	return &e.one[0]
}

// Get reads (table, key) from shard, locally when this executor owns it,
// otherwise shipped to the owner.
func (e *Executor) Get(shard, table int, key schema.Key) (uint64, bool) {
	owner := e.b.Owner(shard)
	if owner == e.id {
		return e.b.Get(shard, table, key)
	}
	r := e.shipOne(owner, 0, batchOp{op: OpGet, table: int32(table), shard: int32(shard), key: key})
	return r.val, r.ok
}

// Put writes (table, key) = val on behalf of txn.
func (e *Executor) Put(shard, table int, key schema.Key, txn, val uint64) {
	owner := e.b.Owner(shard)
	if owner == e.id {
		e.b.Put(shard, table, key, txn, val)
		return
	}
	e.shipOne(owner, txn, batchOp{op: OpPut, table: int32(table), shard: int32(shard), key: key, val: val})
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
	return e.shipOne(owner, txn, batchOp{op: OpIncrement, table: int32(table), shard: int32(shard), key: key}).val
}

// Delete removes (table, key) on behalf of txn.
func (e *Executor) Delete(shard, table int, key schema.Key, txn uint64) bool {
	owner := e.b.Owner(shard)
	if owner == e.id {
		return e.b.Delete(shard, table, key, txn)
	}
	return e.shipOne(owner, txn, batchOp{op: OpDelete, table: int32(table), shard: int32(shard), key: key}).ok
}

// CommitRemote ships txn's commit record alone to a participant island's log.
// nowNs is the committer's wall offset in nanoseconds.
func (e *Executor) CommitRemote(island int, txn uint64, nowNs int64) {
	if island == e.id {
		e.b.Commit(e.id, txn, vclock.Nanos(nowNs))
		return
	}
	e.out = Request{txn: txn, commit: true, nowNs: nowNs}
	e.ship(island)
}

// CommitLocal appends txn's commit record to this executor's own island log.
func (e *Executor) CommitLocal(txn uint64, nowNs int64) {
	e.b.Commit(e.id, txn, vclock.Nanos(nowNs))
}
