// Package partition describes logical partitioning and placement: which key
// ranges of which tables form logical partitions, and which processor core
// owns each partition. It also provides the router used by data-oriented
// execution to map a row access to the partition (and hence the worker
// thread) responsible for it, and the partition-local runtime state (the
// local lock table) that makes the critical path socket-local.
package partition

import (
	"fmt"
	"sort"

	"atrapos/internal/btree"
	"atrapos/internal/device"
	"atrapos/internal/lock"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

// TablePlacement is the partitioning and placement of one table: partition i
// covers keys in [Bounds[i], Bounds[i+1]) and is owned by core Cores[i].
type TablePlacement struct {
	Table  string
	Bounds []schema.Key
	Cores  []topology.CoreID
}

// Validate checks structural invariants.
func (tp *TablePlacement) Validate() error {
	if tp.Table == "" {
		return fmt.Errorf("partition: placement with empty table name")
	}
	if len(tp.Bounds) == 0 {
		return fmt.Errorf("partition: table %s has no partitions", tp.Table)
	}
	if tp.Bounds[0] != 0 {
		return fmt.Errorf("partition: table %s first bound must be 0", tp.Table)
	}
	for i := 1; i < len(tp.Bounds); i++ {
		if tp.Bounds[i] <= tp.Bounds[i-1] {
			return fmt.Errorf("partition: table %s bounds not ascending at %d", tp.Table, i)
		}
	}
	if len(tp.Cores) != len(tp.Bounds) {
		return fmt.Errorf("partition: table %s has %d bounds but %d core assignments", tp.Table, len(tp.Bounds), len(tp.Cores))
	}
	return nil
}

// NumPartitions returns the number of partitions.
func (tp *TablePlacement) NumPartitions() int { return len(tp.Bounds) }

// PartitionFor returns the partition index owning key. Keys at or beyond the
// last bound belong to the last partition; keys below the first bound (which
// only arise from malformed generators, since the first bound is always 0)
// are clamped to the first partition instead of producing index -1.
func (tp *TablePlacement) PartitionFor(key schema.Key) int {
	i := sort.Search(len(tp.Bounds), func(i int) bool { return tp.Bounds[i] > key }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// CoreFor returns the core owning key.
func (tp *TablePlacement) CoreFor(key schema.Key) topology.CoreID {
	return tp.Cores[tp.PartitionFor(key)]
}

// Clone returns a deep copy.
func (tp *TablePlacement) Clone() *TablePlacement {
	return &TablePlacement{
		Table:  tp.Table,
		Bounds: append([]schema.Key(nil), tp.Bounds...),
		Cores:  append([]topology.CoreID(nil), tp.Cores...),
	}
}

// Placement is the partitioning and placement of every table in the database.
type Placement struct {
	Tables map[string]*TablePlacement
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{Tables: make(map[string]*TablePlacement)}
}

// Validate checks every table placement.
func (p *Placement) Validate() error {
	for name, tp := range p.Tables {
		if name != tp.Table {
			return fmt.Errorf("partition: placement key %q does not match table %q", name, tp.Table)
		}
		if err := tp.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ValidateAlive rejects placements that assign a partition to a core that
// does not exist in the topology or whose socket has failed. Validate only
// checks structural invariants; the engine runs this check additionally
// before installing a new snapshot, so an adaptive repartitioning can never
// route work to dead hardware.
func (p *Placement) ValidateAlive(top *topology.Topology) error {
	for name, tp := range p.Tables {
		for i, c := range tp.Cores {
			if _, err := top.Core(c); err != nil {
				return fmt.Errorf("partition: table %s partition %d assigned to unknown core %d", name, i, c)
			}
			if !top.Alive(top.SocketOf(c)) {
				return fmt.Errorf("partition: table %s partition %d assigned to core %d on failed socket %d",
					name, i, c, top.SocketOf(c))
			}
		}
	}
	return nil
}

// ValidateAliveDevices extends the liveness invariant from compute to
// storage: it rejects placements for which some partition's owning core
// resolves — through its die — to no alive log device, so a snapshot built
// from the placement could only bind an island log to a failed device.
// Passing a nil device map (no log-device layout configured) is trivially
// valid. The engine runs this alongside ValidateAlive before installing a
// re-wired snapshot.
func (p *Placement) ValidateAliveDevices(top *topology.Topology, devs *device.Map) error {
	if devs == nil {
		return nil
	}
	for name, tp := range p.Tables {
		for i, c := range tp.Cores {
			die := top.DieOf(c)
			if d := devs.AliveDeviceFor(die); d == nil {
				return fmt.Errorf("partition: table %s partition %d on core %d has no alive log device (die %d, layout %s)",
					name, i, c, die, devs.Layout())
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the placement.
func (p *Placement) Clone() *Placement {
	out := NewPlacement()
	for name, tp := range p.Tables {
		out.Tables[name] = tp.Clone()
	}
	return out
}

// Table returns the placement of one table.
func (p *Placement) Table(name string) (*TablePlacement, bool) {
	tp, ok := p.Tables[name]
	return tp, ok
}

// TableNames returns the table names in sorted order.
func (p *Placement) TableNames() []string {
	out := make([]string, 0, len(p.Tables))
	for name := range p.Tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalPartitions returns the number of partitions across all tables.
func (p *Placement) TotalPartitions() int {
	total := 0
	for _, tp := range p.Tables {
		total += tp.NumPartitions()
	}
	return total
}

// PartitionsPerCore returns how many partitions each core owns.
func (p *Placement) PartitionsPerCore() map[topology.CoreID]int {
	out := make(map[topology.CoreID]int)
	for _, tp := range p.Tables {
		for _, c := range tp.Cores {
			out[c]++
		}
	}
	return out
}

// TableSpec describes one table when building a placement: its name and the
// maximum integer primary key (exclusive) used for range partitioning.
type TableSpec struct {
	Name   string
	MaxKey int64
}

// PerIsland builds a placement with one partition per alive island at the
// given level for each table, owned by the island's first alive core. It is
// the data layout of a shared-nothing deployment at that island granularity:
// LevelCore reproduces the extreme (instance-per-core) layout, LevelSocket
// the coarse (instance-per-socket) one, LevelDie an instance per CCX/cluster,
// and LevelMachine a single instance covering the whole key space.
func PerIsland(top *topology.Topology, level topology.Level, tables []TableSpec) *Placement {
	islands := top.AliveIslandsAt(level)
	p := NewPlacement()
	for _, spec := range tables {
		n := len(islands)
		if n < 1 {
			n = 1
		}
		bounds := btree.UniformBounds(spec.MaxKey, n)
		tp := &TablePlacement{
			Table:  spec.Name,
			Bounds: bounds,
			Cores:  make([]topology.CoreID, len(bounds)),
		}
		for i := range tp.Cores {
			if len(islands) > 0 {
				tp.Cores[i] = islands[i%len(islands)].Cores[0].ID
			}
		}
		p.Tables[spec.Name] = tp
	}
	return p
}

// NaivePerCore builds the naïve hardware-aware placement of Section IV: every
// table is range partitioned with one partition per alive core, assigned in
// core order. With T tables, every core owns T partitions (one per table),
// which is the oversaturation the Figure 6 experiment demonstrates. It is
// PerIsland at the finest granularity.
func NaivePerCore(top *topology.Topology, tables []TableSpec) *Placement {
	return PerIsland(top, topology.LevelCore, tables)
}

// Runtime is the per-partition runtime state of data-oriented execution: one
// entry per (table, partition) with its owning core and its partition-local
// lock table.
type Runtime struct {
	domain *numa.Domain
	locks  map[string][]*lock.LocalManager
}

// NewRuntime builds the partition-local lock tables for a placement. Each
// lock table is homed on the island of its partition's owning core (its
// socket and, on hierarchical machines, its die), so the critical path stays
// local to the smallest enclosing island.
func NewRuntime(d *numa.Domain, p *Placement) *Runtime {
	r := &Runtime{domain: d, locks: make(map[string][]*lock.LocalManager)}
	for name, tp := range p.Tables {
		ms := make([]*lock.LocalManager, len(tp.Cores))
		for i, core := range tp.Cores {
			ms[i] = lock.NewLocalManagerAt(d, core)
		}
		r.locks[name] = ms
	}
	return r
}

// Locks returns the local lock manager of partition idx of table name.
func (r *Runtime) Locks(name string, idx int) (*lock.LocalManager, error) {
	ms, ok := r.locks[name]
	if !ok {
		return nil, fmt.Errorf("partition: no runtime state for table %q", name)
	}
	if idx < 0 || idx >= len(ms) {
		return nil, fmt.Errorf("partition: table %q has no partition %d", name, idx)
	}
	return ms[idx], nil
}

// TableLocks returns the local lock managers of table name by partition
// index, or nil for a table the runtime does not hold.
func (r *Runtime) TableLocks(name string) []*lock.LocalManager { return r.locks[name] }

// NumPartitions returns the number of partitions of table name in the runtime.
func (r *Runtime) NumPartitions(name string) int {
	return len(r.locks[name])
}
