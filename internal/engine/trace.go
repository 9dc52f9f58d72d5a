package engine

import (
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// traceOp records one virtual-time operation span on the run's ring,
// ending at the charged core's current time (call it after the cost has been
// charged, so [end-cost, end] is exactly the operation's slice of the core's
// timeline). With tracing off sc.ring is nil and the call is one comparison.
func (e *Engine) traceOp(sc *execScratch, kind obs.Kind, core topology.CoreID, cost numa.Cost, arg int64) {
	if sc.ring == nil {
		return
	}
	end := e.coreTime(core)
	sc.ring.Record(obs.Span{
		Start: end - vclock.Nanos(cost),
		Dur:   vclock.Nanos(cost),
		Kind:  kind,
		Core:  int32(core),
		Site:  sc.site,
		Epoch: sc.epoch,
		Arg:   arg,
	})
}

// trace2PC records the two phases of a completed commit protocol as separate
// spans: the voting phase at its measured PrepareCost and the decision and
// completion phase as the remainder. Call it after the outcome's ByComponent
// costs have been charged to the coordinating core; hold-time charges land on
// remote cores and are deliberately outside both spans.
func (e *Engine) trace2PC(sc *execScratch, core topology.CoreID, total, prepare numa.Cost, participants int, committed bool) {
	if sc.ring == nil {
		return
	}
	end := e.coreTime(core)
	start := end - vclock.Nanos(total)
	arg := int64(participants)
	if !committed {
		arg = -arg
	}
	sc.ring.Record(obs.Span{
		Start: start, Dur: vclock.Nanos(prepare), Kind: obs.KindPrepare,
		Core: int32(core), Site: sc.site, Epoch: sc.epoch, Arg: arg,
	})
	sc.ring.Record(obs.Span{
		Start: start + vclock.Nanos(prepare), Dur: vclock.Nanos(total - prepare), Kind: obs.KindCommit,
		Core: int32(core), Site: sc.site, Epoch: sc.epoch, Arg: arg,
	})
}

// errArg encodes an operation error as a span argument: 1 failed, 0 ok.
func errArg(err error) int64 {
	if err != nil {
		return 1
	}
	return 0
}
