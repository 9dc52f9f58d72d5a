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

// clockSpread returns the least, mean and greatest busy clock over every core,
// the failed ones included. Max is the exact engine-wide virtual time.
func (e *Engine) clockSpread() vclock.Spread {
	s := vclock.Spread{Min: e.accounts[0].busy}
	var sum vclock.Nanos
	for i := range e.accounts {
		b := e.accounts[i].busy
		s.Min, s.Max = min(s.Min, b), max(s.Max, b)
		sum += b
	}
	s.Mean = sum / vclock.Nanos(len(e.accounts))
	return s
}

// breakdown aggregates the per-component costs across all cores.
func (e *Engine) breakdown() vclock.Breakdown {
	var out vclock.Breakdown
	for i := range e.accounts {
		if t := e.accounts[i].busy; t > out.Total {
			out.Total = t
		}
		for comp, ns := range e.accounts[i].comp {
			out.ByComp[comp] += ns
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

// stateSnapshot bundles everything that changes together during repartitioning
// and during an online island-level change. The run loop takes exactly one
// snapshot per transaction; the planner installs a new one between
// transactions.
type stateSnapshot struct {
	placement *partition.Placement
	// activePerCore is the number of active partitions each core hosts,
	// indexed by CoreID; the oversaturation penalty reads it per action.
	activePerCore []int32
	// wiring is the instance mapping (sites, per-island logs, 2PC
	// coordinator, transaction manager) derived from the island level in force
	// when the snapshot was installed: the island-routed design's level, one
	// machine-wide site for the others. Swapping it with the placement is what
	// lets the planner re-wire the machine online without ever splitting a
	// transaction across layouts.
	wiring *islandWiring
	// tps and locks are the placement and its partition lock tables by dense
	// table index (nil for a table the placement does not hold), so routing
	// and locking index a slice where they would look a name up. The lock
	// tables are built fresh at every install, each homed on the island of
	// its partition's owner (partition.NewRuntime); the snapshot is installed
	// between two transactions, when no lock table holds a grant.
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

// install makes a snapshot of the placement, fresh lock tables for it and the
// wiring the one the next transaction takes.
func (e *Engine) install(p *partition.Placement, active []int32, w *islandWiring) {
	rt := partition.NewRuntime(e.domain, p)
	snap := &stateSnapshot{placement: p, activePerCore: active, wiring: w,
		tps:   make([]*partition.TablePlacement, len(e.wl.Tables)),
		locks: make([][]*lock.LocalManager, len(e.wl.Tables)),
	}
	for ti, td := range e.wl.Tables {
		snap.tps[ti] = p.Tables[td.Schema.Name]
		snap.locks[ti] = rt.TableLocks(td.Schema.Name)
	}
	e.snap = snap
}

// saturationFactor returns the execution cost multiplier of a core that hosts
// n active partition workers under the configured penalty.
func saturationFactor(penalty float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 + penalty*float64(n-1)
}
