package txn

import (
	"fmt"

	"atrapos/internal/numa"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
)

// TwoPCOutcome summarizes the execution of one distributed transaction under
// the standard two-phase commit protocol: the virtual cost attributed to each
// component and the number of messages and log records it generated. The
// engines charge these costs to the coordinating worker's clock, which is how
// the paper's Figure 4 breakdown attributes 2PC overhead to communication,
// logging and locking.
type TwoPCOutcome struct {
	Committed  bool
	Messages   int
	LogRecords int
	// ByComponent is indexed by vclock.Component; a fixed array keeps the
	// per-transaction 2PC path free of map allocations.
	ByComponent [vclock.NumComponents]numa.Cost
	// PrepareCost is the cost accumulated through the end of the voting
	// phase (phase 1); TotalCost() - PrepareCost is the decision and
	// completion phase. The tracer splits the protocol into its two spans
	// with it.
	PrepareCost numa.Cost
}

// TotalCost returns the sum over all components.
func (o TwoPCOutcome) TotalCost() numa.Cost {
	var total numa.Cost
	for _, c := range o.ByComponent {
		total += c
	}
	return total
}

// Coordinator runs two-phase commit between shared-nothing instances. It does
// not execute the transaction bodies (the engine does); it models the commit
// protocol: prepare messages, prepare log records on every participant, vote
// collection, the decision record, decision messages, and the acknowledgement
// round. Locks stay held for the full protocol, which the caller accounts as
// additional locking time proportional to the protocol latency.
//
// Participants are identified by their instance (island) index into the
// per-instance log set: every island is its own 2PC site with its own log,
// so two instances sharing a socket still exchange their own prepare/end
// rounds and flush their own logs — the flush that makes a participant's
// vote durable covers the update records that participant appended during
// execution, because they live in the same per-island log.
type Coordinator struct {
	domain *numa.Domain
	logs   *wal.PartitionedLog
	// homeCores holds each instance's home core, indexed by site; messages
	// are priced core-to-core so commit coordination between die islands of
	// one socket pays the same die surcharge as action shipping.
	homeCores []topology.CoreID
}

// NewCoordinatorAt builds a 2PC coordinator with an explicit home core per
// instance; homeCores must be indexed like the logs' islands.
func NewCoordinatorAt(d *numa.Domain, logs *wal.PartitionedLog, homeCores []topology.CoreID) *Coordinator {
	return &Coordinator{domain: d, logs: logs, homeCores: append([]topology.CoreID(nil), homeCores...)}
}

// homeCore returns the home core of instance site, mirroring Log's
// out-of-range fallback.
func (c *Coordinator) homeCore(site int) topology.CoreID {
	if site < 0 || site >= len(c.homeCores) {
		if len(c.homeCores) == 0 {
			return 0
		}
		return c.homeCores[0]
	}
	return c.homeCores[site]
}

// Run executes the commit protocol for transaction t coordinated by instance
// coordSite, whose worker runs on core coord, with the given participant
// instances (the coordinator itself may or may not be among them). now is the
// coordinating worker's virtual time: the prepare and decision flushes are
// issued at it, so logs bound to a queueing log device price the waits the
// protocol's flushes see. abortVote forces a participant abort, exercising
// the rollback path.
func (c *Coordinator) Run(t *Txn, coord topology.CoreID, coordSite int, participants []int, now vclock.Nanos, abortVote bool) (TwoPCOutcome, error) {
	if t == nil {
		return TwoPCOutcome{}, fmt.Errorf("txn: nil transaction")
	}
	// Duplicate participants are skipped with linear scans (the participant
	// count is bounded by the instance count of one transaction) so the
	// protocol allocates nothing.
	nUniq := 0
	for i := range participants {
		if firstParticipant(participants, i) {
			nUniq++
		}
	}
	if nUniq == 0 {
		return TwoPCOutcome{}, fmt.Errorf("txn: distributed transaction %d has no participants", t.ID)
	}
	var out TwoPCOutcome
	t.State = Preparing

	// Phase 1: prepare requests, participant prepare records, votes back.
	for i, p := range participants {
		if !firstParticipant(participants, i) {
			continue
		}
		home := c.logs.Home(p)
		lg := c.logs.Log(p)
		out.ByComponent[vclock.Communication] += c.domain.CoreMessageCost(coord, c.homeCore(p))
		_, logCost := lg.Append(home, wal.Record{Txn: uint64(t.ID), Type: wal.Prepare, Size: 96})
		out.ByComponent[vclock.Logging] += logCost
		out.ByComponent[vclock.Logging] += lg.Flush(home, lg.Tail(), now)
		out.ByComponent[vclock.Communication] += c.domain.CoreMessageCost(c.homeCore(p), coord)
		out.Messages += 2
		out.LogRecords++
	}

	out.PrepareCost = out.TotalCost()

	// Decision, on the coordinator instance's own log.
	decision := wal.Commit
	out.Committed = !abortVote
	if abortVote {
		decision = wal.Abort
	}
	coordSocket := c.domain.Top.SocketOf(coord)
	coordLog := c.logs.Log(coordSite)
	_, decCost := coordLog.Append(coordSocket, wal.Record{Txn: uint64(t.ID), Type: decision, Size: 64})
	out.ByComponent[vclock.Logging] += decCost
	out.ByComponent[vclock.Logging] += coordLog.Flush(coordSocket, coordLog.Tail(), now)
	out.LogRecords++

	// Phase 2: decision messages, participant end records, acknowledgements.
	for i, p := range participants {
		if !firstParticipant(participants, i) {
			continue
		}
		home := c.logs.Home(p)
		out.ByComponent[vclock.Communication] += c.domain.CoreMessageCost(coord, c.homeCore(p))
		_, endCost := c.logs.Log(p).Append(home, wal.Record{Txn: uint64(t.ID), Type: wal.EndOfDistributed, Size: 48})
		out.ByComponent[vclock.Logging] += endCost
		out.ByComponent[vclock.Communication] += c.domain.CoreMessageCost(c.homeCore(p), coord)
		out.Messages += 2
		out.LogRecords++
	}

	// Locks are held for the whole protocol on every participant: account the
	// extra hold time as locking overhead proportional to the protocol cost.
	hold := out.ByComponent[vclock.Communication] + out.ByComponent[vclock.Logging]
	out.ByComponent[vclock.Locking] += numa.Cost(nUniq) * hold / 4

	// Coordinator bookkeeping (participant table, transaction state).
	out.ByComponent[vclock.Management] += numa.Cost(nUniq) * 200

	// The transaction stays in the Preparing state; the caller finishes it
	// through the transaction manager according to out.Committed, so the
	// active-transaction list is maintained in one place.
	return out, nil
}

// firstParticipant reports whether participants[i] does not appear earlier.
func firstParticipant(participants []int, i int) bool {
	for j := 0; j < i; j++ {
		if participants[j] == participants[i] {
			return false
		}
	}
	return true
}
