package partition

import (
	"fmt"
	"sort"

	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

// TableDiffKind classifies how one table's placement changed between two
// placements.
type TableDiffKind int

const (
	// TableUnchanged means the bounds and every core assignment are identical.
	TableUnchanged TableDiffKind = iota
	// TableMoved means the partition boundaries are identical but at least
	// one partition is owned by a different core.
	TableMoved
	// TableRebounded means the partition boundaries themselves changed
	// (splits, merges or resized ranges), possibly along with core moves.
	TableRebounded
)

// String implements fmt.Stringer.
func (k TableDiffKind) String() string {
	switch k {
	case TableUnchanged:
		return "unchanged"
	case TableMoved:
		return "moved"
	case TableRebounded:
		return "rebounded"
	default:
		return fmt.Sprintf("TableDiffKind(%d)", int(k))
	}
}

// TableDiff describes how one table's placement changed.
type TableDiff struct {
	Table string
	Kind  TableDiffKind
	// Moved lists the partition indices (in the desired placement) whose
	// owning core changed. For TableMoved tables it is exact; for
	// TableRebounded tables it lists every desired partition whose
	// (lower bound, upper bound, core) triple has no identical counterpart
	// in the current placement.
	Moved []int
}

// PlanDiff is the structured difference between the current placement and a
// desired one: which tables are untouched, which only moved partitions
// between cores, and which changed their partition boundaries. The adaptive
// pipeline migrates only what the diff names.
type PlanDiff struct {
	Old, New *Placement
	Tables   map[string]*TableDiff
}

// Diff computes the structured difference between two placements. Tables
// present only in desired are reported as TableRebounded (a full build);
// tables present only in current are dropped silently, mirroring how a
// fresh NewRuntime would simply not carry them.
func Diff(current, desired *Placement) *PlanDiff {
	d := &PlanDiff{Old: current, New: desired, Tables: make(map[string]*TableDiff, len(desired.Tables))}
	for name, want := range desired.Tables {
		td := &TableDiff{Table: name}
		have, ok := current.Tables[name]
		if !ok {
			td.Kind = TableRebounded
			for i := range want.Bounds {
				td.Moved = append(td.Moved, i)
			}
			d.Tables[name] = td
			continue
		}
		if boundsEqual(have.Bounds, want.Bounds) {
			for i := range want.Cores {
				if want.Cores[i] != have.Cores[i] {
					td.Moved = append(td.Moved, i)
				}
			}
			if len(td.Moved) > 0 {
				td.Kind = TableMoved
			}
			d.Tables[name] = td
			continue
		}
		td.Kind = TableRebounded
		for i := range want.Bounds {
			if j, ok := matchingPartition(have, want, i); !ok || have.Cores[j] != want.Cores[i] {
				td.Moved = append(td.Moved, i)
			}
		}
		d.Tables[name] = td
	}
	return d
}

// matchingPartition finds the partition of have covering exactly the same key
// range as partition i of want, if one exists. The last partition's upper
// bound is open-ended, so last matches only last.
func matchingPartition(have, want *TablePlacement, i int) (int, bool) {
	lo := want.Bounds[i]
	j := sort.Search(len(have.Bounds), func(k int) bool { return have.Bounds[k] >= lo })
	if j >= len(have.Bounds) || have.Bounds[j] != lo {
		return 0, false
	}
	iLast := i == len(want.Bounds)-1
	jLast := j == len(have.Bounds)-1
	if iLast != jLast {
		return 0, false
	}
	if !iLast && have.Bounds[j+1] != want.Bounds[i+1] {
		return 0, false
	}
	return j, true
}

func boundsEqual(a, b []schema.Key) bool {
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

// Empty reports whether the diff changes nothing.
func (d *PlanDiff) Empty() bool {
	for _, td := range d.Tables {
		if td.Kind != TableUnchanged {
			return false
		}
	}
	return true
}

// UnchangedTables counts the tables the diff leaves untouched.
func (d *PlanDiff) UnchangedTables() int {
	n := 0
	for _, td := range d.Tables {
		if td.Kind == TableUnchanged {
			n++
		}
	}
	return n
}

// ChangedTables counts the tables the diff touches.
func (d *PlanDiff) ChangedTables() int { return len(d.Tables) - d.UnchangedTables() }

// ReboundTables counts the tables whose partition boundaries changed.
func (d *PlanDiff) ReboundTables() int {
	n := 0
	for _, td := range d.Tables {
		if td.Kind == TableRebounded {
			n++
		}
	}
	return n
}

// MovedPartitions counts the partitions (across all tables) whose owning core
// or key range changed; it is the size of the migration the diff implies.
func (d *PlanDiff) MovedPartitions() int {
	n := 0
	for _, td := range d.Tables {
		n += len(td.Moved)
	}
	return n
}

// AffectedCores returns the distinct cores that own a changed partition in
// either the old or the new placement. These are the cores that pause for
// the migration; cores whose partitions did not move keep executing.
func (d *PlanDiff) AffectedCores() []topology.CoreID {
	seen := make(map[topology.CoreID]struct{})
	for name, td := range d.Tables {
		if td.Kind == TableUnchanged {
			continue
		}
		want := d.New.Tables[name]
		have := d.Old.Tables[name]
		switch td.Kind {
		case TableMoved:
			for _, i := range td.Moved {
				seen[want.Cores[i]] = struct{}{}
				if have != nil && i < len(have.Cores) {
					seen[have.Cores[i]] = struct{}{}
				}
			}
		case TableRebounded:
			// Boundary changes redistribute rows across the whole table:
			// every owner of the table, old and new, participates.
			for _, c := range want.Cores {
				seen[c] = struct{}{}
			}
			if have != nil {
				for _, c := range have.Cores {
					seen[c] = struct{}{}
				}
			}
		}
	}
	out := make([]topology.CoreID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ApplyStats is ApplyDiff's second result; it reports nothing, since
// ApplyDiff reuses nothing.
type ApplyStats struct{}

// ApplyDiff returns a fresh runtime for placement p, exactly NewRuntime's; the
// diff is not consulted. A priced run installs a new runtime between two
// transactions, when no lock table holds a grant, and carrying unchanged
// partitions' lock tables over moved no result, so nothing is carried. The
// method stays because the repo benchmark's replay times it as a layer of
// its own.
func (r *Runtime) ApplyDiff(p *Placement, _ *PlanDiff) (*Runtime, ApplyStats) {
	return NewRuntime(r.domain, p), ApplyStats{}
}

// Validate checks that the runtime is structurally equivalent to a fresh
// NewRuntime build for placement p: every table is present with one lock
// manager per partition, and every manager is homed on the island of the
// partition's owning core (its socket and its die).
func (r *Runtime) Validate(p *Placement) error {
	if len(r.locks) != len(p.Tables) {
		return fmt.Errorf("partition: runtime has %d tables, placement has %d", len(r.locks), len(p.Tables))
	}
	for name, tp := range p.Tables {
		ms, ok := r.locks[name]
		if !ok {
			return fmt.Errorf("partition: runtime is missing table %q", name)
		}
		if len(ms) != len(tp.Cores) {
			return fmt.Errorf("partition: table %q runtime has %d partitions, placement has %d", name, len(ms), len(tp.Cores))
		}
		for i, m := range ms {
			if m == nil {
				return fmt.Errorf("partition: table %q partition %d has no lock table", name, i)
			}
			if want := r.domain.Top.SocketOf(tp.Cores[i]); m.Home() != want {
				return fmt.Errorf("partition: table %q partition %d lock table homed on socket %d, owner core %d is on socket %d",
					name, i, m.Home(), tp.Cores[i], want)
			}
			if want := r.domain.Top.DieOf(tp.Cores[i]); m.HomeDie() != want {
				return fmt.Errorf("partition: table %q partition %d lock table homed on die %d, owner core %d is on die %d",
					name, i, m.HomeDie(), tp.Cores[i], want)
			}
		}
	}
	return nil
}
