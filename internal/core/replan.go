package core

import (
	"fmt"
	"slices"

	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// Plan is one repartitioning: the placement the tables are in and the one
// they move to. Executor.Execute derives the split, merge and move work from
// the two.
type Plan struct {
	Current, New *partition.Placement
}

// BuildPlan pairs the current placement with a copy of the desired one. The
// executor prices socket moves on its own domain's machine, so the topology
// argument is not read.
func BuildPlan(current, desired *partition.Placement, _ *topology.Topology) *Plan {
	return &Plan{Current: current, New: desired.Clone()}
}

// ExecutorConfig tunes the modeled cost of repartitioning actions. The values
// reproduce the scale of Figure 9: individual actions complete in a couple of
// milliseconds and the costliest 80-action sequence stays under ~200 ms.
type ExecutorConfig struct {
	// PerRowCost is the virtual cost of moving one row between sub-trees.
	PerRowCost numa.Cost
	// PerActionCost is the fixed metadata cost of one action (updating the
	// partition table, rebuilding the local lock table, queues, ...).
	PerActionCost numa.Cost
}

// splitMetadataFactor makes splits more expensive than merges, as the paper
// observes (splits update more metadata); calibrated with the defaults below
// to the Figure 9 measurements.
const splitMetadataFactor = 1.6

// DefaultExecutorConfig returns costs calibrated to the Figure 9 measurements.
func DefaultExecutorConfig() ExecutorConfig {
	return ExecutorConfig{
		PerRowCost:    60,
		PerActionCost: 250_000,
	}
}

// Executor applies repartitioning plans to the physical tables.
type Executor struct {
	cfg    ExecutorConfig
	domain *numa.Domain
	store  *storage.Manager
}

// NewExecutor builds an executor over the storage manager.
func NewExecutor(cfg ExecutorConfig, domain *numa.Domain, store *storage.Manager) *Executor {
	return &Executor{cfg: cfg, domain: domain, store: store}
}

// Outcome reports what a repartitioning planned and what it cost. The engine
// pauses regular actions and charges the cost to every worker, which is how
// the paper executes repartitioning actions without interleaving them with
// regular actions.
type Outcome struct {
	// Splits, Merges and Moves count the planned actions: new bounds, dropped
	// bounds and partitions whose owning socket changes.
	Splits, Merges, Moves int
	Cost                  vclock.Nanos
}

// Execute applies the plan to the physical tables, table by table in the
// desired placement's order: a split at every new bound, a merge for every
// dropped one (indexed against the pre-split layout) and a priced move for
// every partition whose owning socket changes. Then every table is brought in
// line with the desired placement and its partitions are re-homed on their
// owners' sockets. It returns the planned counts and the modeled cost.
func (e *Executor) Execute(plan *Plan) (Outcome, error) {
	var out Outcome
	if plan == nil {
		return out, nil
	}
	top := e.domain.Top
	for _, name := range plan.New.TableNames() {
		have, ok := plan.Current.Tables[name]
		if !ok {
			continue
		}
		want := plan.New.Tables[name]
		var splits []schema.Key
		for _, b := range want.Bounds {
			if b != 0 && !slices.Contains(have.Bounds, b) {
				splits = append(splits, b)
			}
		}
		// A dropped bound merges the partition to its left with its right
		// neighbour.
		var merges []int
		for i, b := range have.Bounds {
			if b != 0 && !slices.Contains(want.Bounds, b) {
				merges = append(merges, i-1)
			}
		}
		moves := 0
		for i, c := range want.Cores {
			if top.SocketOf(have.CoreFor(want.Bounds[i])) != top.SocketOf(c) {
				moves++
			}
		}
		out.Splits += len(splits)
		out.Merges += len(merges)
		out.Moves += moves
		if len(splits)+len(merges)+moves == 0 {
			continue
		}
		tbl, err := e.store.Table(name)
		if err != nil {
			return out, err
		}
		for _, key := range splits {
			_, moved, err := tbl.Split(key)
			if err != nil {
				// Splitting at an existing bound can happen when the table
				// drifted from the current placement; treat as a no-op.
				continue
			}
			out.Cost += vclock.Nanos(float64(e.cfg.PerActionCost)*splitMetadataFactor) +
				vclock.Nanos(moved)*vclock.Nanos(e.cfg.PerRowCost)
		}
		for _, p := range merges {
			if p < 0 || p+1 >= tbl.NumPartitions() {
				continue
			}
			moved, err := tbl.Merge(p)
			if err != nil {
				continue
			}
			out.Cost += vclock.Nanos(e.cfg.PerActionCost) + vclock.Nanos(moved)*vclock.Nanos(e.cfg.PerRowCost)
		}
		out.Cost += vclock.Nanos(moves) * vclock.Nanos(e.cfg.PerActionCost)
	}
	if out.Splits+out.Merges+out.Moves == 0 {
		return out, nil
	}
	// Bring the physical tables fully in line with the desired placement
	// (bounds may have drifted if some splits were skipped) and re-home the
	// partitions on the sockets of their owning cores.
	for _, name := range plan.New.TableNames() {
		tbl, err := e.store.Table(name)
		if err != nil {
			return out, err
		}
		tp := plan.New.Tables[name]
		homes := make([]topology.SocketID, len(tp.Cores))
		for i, c := range tp.Cores {
			homes[i] = top.SocketOf(c)
		}
		if !slices.Equal(tbl.Bounds(), tp.Bounds) {
			moved, err := tbl.Repartition(tp.Bounds, homes)
			if err != nil {
				return out, fmt.Errorf("core: repartition of %s: %w", name, err)
			}
			out.Cost += vclock.Nanos(moved) * vclock.Nanos(e.cfg.PerRowCost) / 4
		} else {
			for i, h := range homes {
				if err := tbl.SetHome(i, h); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}
