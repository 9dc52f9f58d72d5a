package backend

import (
	"runtime"
	"time"

	"atrapos/internal/schema"
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
// the transaction's commit record for the owner's value log. An executor owns exactly one reusable Request (its out
// field) and the ops slice points into its own staging buffers, so shipping
// allocates nothing in steady state: the sender fills out, hands the pointer
// to the owner's inbox, and waits — polling, then parked — on its own reply
// channel until the owner has written the results back into ops and signalled
// it.
type Request struct {
	txn    uint64
	ops    []batchOp
	commit bool
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

// Executor is the single owner of one island's shard: all index mutations on
// it happen on its goroutine. The goroutine is an ordinary one — Go
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
	// one backs Get's single-operation ship.
	staged  []ownerBatch
	touched []int32
	one     [1]batchOp

	Stats ExecStats
}

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

// apply runs one operation on this executor's own shard and writes the
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

// serve executes a shipped batch against this executor's shard — its
// operations in order, then the commit record if it carries one — and hands
// it back to the sender, accounting the wall time under ServeNs.
func (e *Executor) serve(r *Request) {
	e.Stats.Serves++
	t0 := time.Now()
	for i := range r.ops {
		e.apply(&r.ops[i], r.txn)
	}
	if r.commit {
		e.b.Commit(e.id, r.txn, 0)
	}
	// The sender owns r again once the reply is sent; nothing below reads it.
	r.from.reply <- r
	e.Stats.ServeNs += time.Since(t0).Nanoseconds()
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

// shipSpins bounds how many times a shipping executor polls for its reply,
// yielding its processor between polls, before it parks. A parked sender is
// readied onto the replying owner's P and runs only when that owner blocks or
// another P steals it — tens of µs behind a busy owner — while a yielding
// sender goes straight back on a run queue and finds the reply on its next
// poll. The bound keeps a long wait (an owner that has not polled for
// hundreds of yields) from stealing turns from the executors it waits on
// when they share one P.
const shipSpins = 128

// ship sends the executor's out request to the owner and waits for the reply.
// The wait (minus any time spent serving peers, which serve accounts
// separately) lands in ShipNs — the executed analogue of the priced model's
// message round-trip.
func (e *Executor) ship(owner int) {
	e.Stats.Ships++
	e.Stats.ShippedOps += e.out.carried()
	e.out.from = e
	t0 := time.Now()
	served := e.Stats.ServeNs
	e.b.execs[owner].in <- &e.out
	e.awaitReply()
	e.Stats.ShipNs += time.Since(t0).Nanoseconds() - (e.Stats.ServeNs - served)
}

// awaitReply returns once the owner has replied, serving this executor's own
// inbox meanwhile: up to shipSpins polls with a runtime.Gosched after each
// empty one (a served peer counts as a poll), then a blocking select.
func (e *Executor) awaitReply() {
	for spin := 0; spin < shipSpins; spin++ {
		select {
		case <-e.reply:
			return
		case r := <-e.in:
			e.serve(r)
		default:
			runtime.Gosched()
		}
	}
	for {
		select {
		case <-e.reply:
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
	if shard == e.id {
		e.apply(&o, txn)
		return
	}
	sb := &e.staged[shard]
	if len(sb.ops) == 0 {
		e.touched = append(e.touched, int32(shard))
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
// The engine calls it after CommitLocal, so a participant's commit record
// never precedes the home island's.
func (e *Executor) ShipStaged(txn uint64) {
	for _, owner := range e.touched {
		sb := &e.staged[owner]
		e.out = Request{txn: txn, ops: sb.ops, commit: sb.commit}
		e.ship(int(owner))
		sb.ops, sb.commit = sb.ops[:0], false
	}
	e.touched = e.touched[:0]
}

// Get reads (table, key) from shard, locally when this executor owns it,
// otherwise in a one-operation ship to the owner. Executed runs stage their
// reads like every other operation; Get serves the benchmark module's replay
// of one round trip.
func (e *Executor) Get(shard, table int, key schema.Key) (uint64, bool) {
	if shard == e.id {
		return e.b.Get(shard, table, key)
	}
	e.one[0] = batchOp{op: OpGet, table: int32(table), shard: int32(shard), key: key}
	e.out = Request{ops: e.one[:]}
	e.ship(shard)
	return e.one[0].val, e.one[0].ok
}

// CommitLocal appends txn's commit record to this executor's own island log.
func (e *Executor) CommitLocal(txn uint64) {
	e.b.Commit(e.id, txn, 0)
}
