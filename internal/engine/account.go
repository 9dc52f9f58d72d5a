package engine

import (
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// coreAccount is the virtual-time account of one simulated core: a core is a
// set of counters the run loop charges, not a thread. Costs are charged to the
// core the model says did the work (data-oriented execution attributes action
// costs to the partition-owning core, not to the coordinator).
type coreAccount struct {
	busy      vclock.Nanos
	comp      [vclock.NumComponents]vclock.Nanos
	committed int64
}

func (a *coreAccount) charge(comp vclock.Component, c numa.Cost) {
	if c <= 0 {
		return
	}
	a.busy += vclock.Nanos(c)
	if comp >= 0 && int(comp) < len(a.comp) {
		a.comp[comp] += vclock.Nanos(c)
	}
}

// charge adds cost c in component comp to core's account.
func (e *Engine) charge(core topology.CoreID, comp vclock.Component, c numa.Cost) {
	if int(core) < 0 || int(core) >= len(e.accounts) {
		core = 0
	}
	e.accounts[core].charge(comp, c)
}

// virtualNow returns the engine-wide virtual time as tracked by the monotonic
// high-water mark: the maximum over the coordinators' clocks noted so far. It
// is a lower bound on the exact value (the busiest core's clock) that the run
// loop advances once per transaction; because coordinators round-robin over
// all alive cores, the mark tracks the exact value closely. Use
// virtualNowExact at sample/event boundaries where exactness matters.
func (e *Engine) virtualNow() vclock.Nanos { return e.hwm }

// virtualNowExact recomputes the engine-wide virtual time exactly by scanning
// every core's clock, and folds the result back into the high-water mark. It
// is O(cores) and intended for run boundaries, monitoring-interval checks and
// final results — not the per-transaction path.
func (e *Engine) virtualNowExact() vclock.Nanos {
	for i := range e.accounts {
		if b := e.accounts[i].busy; b > e.hwm {
			e.hwm = b
		}
	}
	return e.hwm
}

// noteTime folds core's current clock into the engine's virtual-time
// high-water mark. The run loop calls it once per transaction for the core
// that coordinated it.
func (e *Engine) noteTime(core topology.CoreID) {
	if t := e.coreTime(core); t > e.hwm {
		e.hwm = t
	}
}

// coreTime returns one core's virtual time.
func (e *Engine) coreTime(core topology.CoreID) vclock.Nanos {
	if int(core) < 0 || int(core) >= len(e.accounts) {
		return 0
	}
	return e.accounts[core].busy
}

// breakdown aggregates the per-component costs across all cores.
func (e *Engine) breakdown() vclock.Breakdown {
	out := vclock.Breakdown{ByComp: make(map[vclock.Component]vclock.Nanos, 5)}
	for i := range e.accounts {
		if t := e.accounts[i].busy; t > out.Total {
			out.Total = t
		}
		for _, comp := range vclock.Components() {
			out.ByComp[comp] += e.accounts[i].comp[comp]
		}
	}
	return out
}

// resetAccounts clears all per-core accounting; Run calls it so consecutive
// runs on the same engine start from virtual time zero.
func (e *Engine) resetAccounts() {
	clear(e.accounts)
	e.hwm = 0
}

// partitionedState is the mutable partitioning/placement state. The run loop
// takes exactly one snapshot per transaction; the planner installs a new one
// between transactions.
type partitionedState struct {
	snap *stateSnapshot
}

// stateSnapshot bundles everything that changes together during repartitioning
// and (for the shared-nothing designs) during an online island-level change.
type stateSnapshot struct {
	placement *partition.Placement
	runtime   *partition.Runtime
	// activePerCore is the number of active partitions each core hosts,
	// indexed by CoreID; the oversaturation penalty reads it per action.
	activePerCore []int32
	// wiring is the shared-nothing instance mapping (sites, per-island logs,
	// 2PC coordinator, transaction-state striping) derived from the island
	// level in force when the snapshot was installed; nil for the other
	// designs. Swapping it with the placement is what lets the planner re-wire
	// the machine online without ever splitting a transaction across layouts.
	wiring *islandWiring
	// tps and locks are the placement and the runtime's lock tables by dense
	// table index (nil for a table the placement does not hold), so routing
	// and locking index a slice where they would look a name up.
	tps   []*partition.TablePlacement
	locks [][]*lock.LocalManager
}

// active returns the number of active partitions hosted by core c.
func (s *stateSnapshot) active(c topology.CoreID) int {
	if int(c) < 0 || int(c) >= len(s.activePerCore) {
		return 0
	}
	return int(s.activePerCore[c])
}

// install makes a snapshot of the placement, its runtime and wiring the one
// the next transaction takes.
func (e *Engine) install(p *partition.Placement, rt *partition.Runtime, active []int32, w *islandWiring) {
	snap := &stateSnapshot{placement: p, runtime: rt, activePerCore: active, wiring: w,
		tps:   make([]*partition.TablePlacement, len(e.wl.Tables)),
		locks: make([][]*lock.LocalManager, len(e.wl.Tables)),
	}
	for ti, td := range e.wl.Tables {
		snap.tps[ti] = p.Tables[td.Schema.Name]
		snap.locks[ti] = rt.TableLocks(td.Schema.Name)
	}
	e.state.snap = snap
}

func (s *partitionedState) snapshot() *stateSnapshot { return s.snap }

// saturationFactor returns the execution cost multiplier of a core that hosts
// n active partition workers under the configured penalty.
func saturationFactor(penalty float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 + penalty*float64(n-1)
}
