package core

import (
	"fmt"

	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// ActionKind labels one repartitioning action.
type ActionKind int

const (
	// SplitAction divides an existing partition into two at a key.
	SplitAction ActionKind = iota
	// MergeAction combines two adjacent partitions.
	MergeAction
	// MoveAction migrates a partition to a core on a different socket (a
	// rearrangement of the placement without changing the boundaries).
	MoveAction
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case SplitAction:
		return "split"
	case MergeAction:
		return "merge"
	case MoveAction:
		return "move"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// RepartitionAction is one step of a repartitioning plan.
type RepartitionAction struct {
	Kind  ActionKind
	Table string
	// Key is the split key for SplitAction.
	Key schema.Key
	// Partition is the partition index for MergeAction (merge with its right
	// neighbour) and MoveAction.
	Partition int
}

// Plan is an ordered list of repartitioning actions leading from one
// placement to another, together with the new placement itself.
type Plan struct {
	Actions []RepartitionAction
	New     *partition.Placement
}

// Splits, Merges and Moves count the actions by kind.
func (p *Plan) Splits() int { return p.count(SplitAction) }

// Merges counts the merge actions of the plan.
func (p *Plan) Merges() int { return p.count(MergeAction) }

// Moves counts the move (rearrange) actions of the plan.
func (p *Plan) Moves() int { return p.count(MoveAction) }

func (p *Plan) count(kind ActionKind) int {
	n := 0
	for _, a := range p.Actions {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

// Empty reports whether the plan changes nothing.
func (p *Plan) Empty() bool { return len(p.Actions) == 0 }

// BuildPlan diffs the current placement against the desired one and produces
// the repartitioning actions required: splits for new boundaries, merges for
// removed boundaries and moves for partitions whose owning socket changes.
func BuildPlan(current, desired *partition.Placement, top *topology.Topology) *Plan {
	plan := &Plan{New: desired.Clone()}
	for _, name := range desired.TableNames() {
		want := desired.Tables[name]
		have, ok := current.Tables[name]
		if !ok {
			continue
		}
		haveSet := make(map[schema.Key]bool, len(have.Bounds))
		for _, b := range have.Bounds {
			haveSet[b] = true
		}
		wantSet := make(map[schema.Key]bool, len(want.Bounds))
		for _, b := range want.Bounds {
			wantSet[b] = true
		}
		// New boundaries require splits.
		for _, b := range want.Bounds {
			if b != 0 && !haveSet[b] {
				plan.Actions = append(plan.Actions, RepartitionAction{Kind: SplitAction, Table: name, Key: b})
			}
		}
		// Dropped boundaries require merges (of the partition to the left of
		// the removed boundary with its right neighbour).
		for i, b := range have.Bounds {
			if b != 0 && !wantSet[b] {
				plan.Actions = append(plan.Actions, RepartitionAction{Kind: MergeAction, Table: name, Partition: i - 1})
			}
		}
		// Placement moves: a partition of the desired placement whose owning
		// socket differs from the socket owning that key range today.
		for i, c := range want.Cores {
			key := want.Bounds[i]
			curCore := have.CoreFor(key)
			if top.SocketOf(curCore) != top.SocketOf(c) {
				plan.Actions = append(plan.Actions, RepartitionAction{Kind: MoveAction, Table: name, Partition: i})
			}
		}
	}
	return plan
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
	// SplitMetadataFactor makes splits more expensive than merges, as the
	// paper observes (splits update more metadata).
	SplitMetadataFactor float64
}

// DefaultExecutorConfig returns costs calibrated to the Figure 9 measurements.
func DefaultExecutorConfig() ExecutorConfig {
	return ExecutorConfig{
		PerRowCost:          60,
		PerActionCost:       250_000,
		SplitMetadataFactor: 1.6,
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

// Outcome reports what a repartitioning did and what it cost. The engine
// pauses regular actions and charges the cost to every worker, which is how
// the paper executes repartitioning actions without interleaving them with
// regular actions.
type Outcome struct {
	Actions   int
	RowsMoved int
	Cost      vclock.Nanos
}

// Execute applies the plan to the physical tables: splits and merges change
// the multi-rooted B-trees; moves re-home the partition data. It returns the
// modeled cost of the repartitioning.
func (e *Executor) Execute(plan *Plan) (Outcome, error) {
	var out Outcome
	if plan == nil || plan.Empty() {
		return out, nil
	}
	// Splits and merges first (boundary changes), then re-home every
	// partition according to the new placement.
	for _, a := range plan.Actions {
		tbl, err := e.store.Table(a.Table)
		if err != nil {
			return out, err
		}
		switch a.Kind {
		case SplitAction:
			_, moved, err := tbl.Split(a.Key)
			if err != nil {
				// Splitting at an existing bound can happen when merges
				// already restructured the table; treat as a no-op.
				continue
			}
			out.RowsMoved += moved
			out.Cost += vclock.Nanos(float64(e.cfg.PerActionCost)*e.cfg.SplitMetadataFactor) +
				vclock.Nanos(moved)*vclock.Nanos(e.cfg.PerRowCost)
			out.Actions++
		case MergeAction:
			if a.Partition < 0 || a.Partition+1 >= tbl.NumPartitions() {
				continue
			}
			moved, err := tbl.Merge(a.Partition)
			if err != nil {
				continue
			}
			out.RowsMoved += moved
			out.Cost += vclock.Nanos(e.cfg.PerActionCost) + vclock.Nanos(moved)*vclock.Nanos(e.cfg.PerRowCost)
			out.Actions++
		case MoveAction:
			out.Cost += vclock.Nanos(e.cfg.PerActionCost)
			out.Actions++
		}
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
			homes[i] = e.domain.Top.SocketOf(c)
		}
		if !equalBounds(tbl.Bounds(), tp.Bounds) {
			moved, err := tbl.Repartition(tp.Bounds, homes)
			if err != nil {
				return out, fmt.Errorf("core: repartition of %s: %w", name, err)
			}
			out.RowsMoved += moved
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

func equalBounds(a, b []schema.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
