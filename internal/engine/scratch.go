package engine

import (
	"atrapos/internal/core"
	"atrapos/internal/lock"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/txn"
)

// execScratch is the run loop's reusable state of the transaction hot path.
// Every buffer is reset with a re-slice to length zero and keeps its backing
// array, so after the first few transactions the steady-state execution of a
// transaction performs no heap allocations at all. One scratch per run is
// threaded through every transaction the run executes.
type execScratch struct {
	// snap is the partitioning snapshot taken once per transaction; dispatch
	// and execution read the same snapshot, so one transaction never sees two
	// placements.
	snap *stateSnapshot

	// txn is the reusable transaction object filled by Manager.BeginInto.
	txn txn.Txn

	// acts is dispatch's resolution of the transaction's actions, by action
	// index: dense table index and partition.
	acts []resolvedAction

	// owners records, per action index, the partition (and core) that
	// executed it; partition-local locks are released from it.
	owners []lockedPartition

	// tableModes collects the table-level intention modes of the central
	// lock manager; transactions touch at most ~10 distinct tables, so a linear scan
	// beats a map and allocates nothing.
	tableModes []tableMode

	// syncCores/syncRefs are the per-synchronization-point participant
	// buffers of owner routing; participants are tracked as executing
	// cores so the rendezvous cost can distinguish die and socket crossings.
	syncCores []topology.CoreID
	syncRefs  []core.PartitionRef

	// participants/remoteCores are the distinct 2PC participant instances
	// (site indices) and remote executor cores of island routing.
	participants []int
	remoteCores  []topology.CoreID

	// row is the buffer performAction encodes an action's row into.
	row []byte

	// ring is the run's span ring (nil with tracing off); site and epoch
	// stamp its spans. The run loop sets them per transaction from the
	// snapshot it took.
	ring  *obs.Ring
	site  int32
	epoch uint32
}

// tableMode is a table's (dense index) strongest intention mode.
type tableMode struct {
	table int
	mode  lock.Mode
}

// newExecScratch returns a scratch with capacity for a typical transaction;
// larger transactions grow the buffers once and then reuse them.
func newExecScratch() *execScratch {
	return &execScratch{
		acts:         make([]resolvedAction, 0, 32),
		owners:       make([]lockedPartition, 0, 32),
		tableModes:   make([]tableMode, 0, 8),
		syncCores:    make([]topology.CoreID, 0, 16),
		syncRefs:     make([]core.PartitionRef, 0, 16),
		participants: make([]int, 0, 8),
		remoteCores:  make([]topology.CoreID, 0, 8),
	}
}

// reset prepares the scratch for one transaction attempt.
func (sc *execScratch) reset() {
	sc.owners = sc.owners[:0]
	sc.tableModes = sc.tableModes[:0]
	sc.participants = sc.participants[:0]
	sc.remoteCores = sc.remoteCores[:0]
}

// upsertTableMode records the strongest intention mode seen for a table.
func (sc *execScratch) upsertTableMode(table int, mode lock.Mode) {
	for i := range sc.tableModes {
		if sc.tableModes[i].table == table {
			if mode == lock.IX && sc.tableModes[i].mode == lock.IS {
				sc.tableModes[i].mode = lock.IX
			}
			return
		}
	}
	sc.tableModes = append(sc.tableModes, tableMode{table: table, mode: mode})
}

// addParticipant records a distinct 2PC participant instance (site index).
func (sc *execScratch) addParticipant(site int) {
	for _, p := range sc.participants {
		if p == site {
			return
		}
	}
	sc.participants = append(sc.participants, site)
}

// addRemoteCore records a distinct remote executor core.
func (sc *execScratch) addRemoteCore(c topology.CoreID) {
	for _, r := range sc.remoteCores {
		if r == c {
			return
		}
	}
	sc.remoteCores = append(sc.remoteCores, c)
}

// dominantAction returns the index of the first action of the table that
// appears most often among the resolved actions (at least one); the
// transaction is dispatched to that action's partition owner so the largest
// share of its work stays thread-local. Ties go to the table that appears
// first. Tables are compared by dense index, so the scans compare ints.
func dominantAction(acts []resolvedAction) int {
	best, bestAt := 0, 0
	for i := range acts {
		table := acts[i].table
		seen := false
		for j := 0; j < i; j++ {
			if acts[j].table == table {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		count := 0
		for j := i; j < len(acts); j++ {
			if acts[j].table == table {
				count++
			}
		}
		if count > best {
			best, bestAt = count, i
		}
		if best > len(acts)/2 {
			break // absolute majority: no other table can beat it
		}
	}
	return bestAt
}
