// Package storage implements the physical storage manager that every engine
// configuration shares: tables stored in multi-rooted B-trees, per-partition
// data placement on memory nodes, and row operations that charge NUMA-aware
// virtual costs for index traversal and data access. It is the stand-in for
// Shore-MT, the open-source storage manager the paper prototypes ATraPos on.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

// ErrNotFound is returned when a key does not exist in a table.
var ErrNotFound = errors.New("storage: key not found")

// ErrDuplicate is returned when inserting a key that already exists.
var ErrDuplicate = errors.New("storage: duplicate key")

// Manager owns the physical tables, one per name. It is single-owner like its
// tables (see Table).
type Manager struct {
	domain *numa.Domain
	tables map[string]*Table
}

// NewManager creates an empty storage manager over the given NUMA domain.
func NewManager(domain *numa.Domain) *Manager {
	return &Manager{domain: domain, tables: make(map[string]*Table)}
}

// Domain returns the NUMA domain the manager charges costs against.
func (m *Manager) Domain() *numa.Domain { return m.domain }

// CreateTable validates def and creates its physical table with the given
// partition lower bounds and per-partition memory homes. If homes is nil all
// partitions are homed on socket 0; if it is shorter than bounds the last
// home is repeated. A second table of the same name is an error.
func (m *Manager) CreateTable(def *schema.Table, bounds []schema.Key, homes []topology.SocketID) (*Table, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.tables[def.Name]; dup {
		return nil, fmt.Errorf("storage: table %s already exists", def.Name)
	}
	if len(bounds) == 0 {
		bounds = []schema.Key{0}
	}
	tree, err := btree.NewMultiRooted(bounds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		def:    def,
		layout: def.Layout(),
		domain: m.domain,
		tree:   tree,
		homes:  normalizeHomes(homes, len(bounds)),
	}
	m.tables[def.Name] = t
	return t, nil
}

func normalizeHomes(homes []topology.SocketID, n int) []topology.SocketID {
	out := make([]topology.SocketID, n)
	for i := range out {
		switch {
		case i < len(homes):
			out[i] = homes[i]
		case len(homes) > 0:
			out[i] = homes[len(homes)-1]
		default:
			out[i] = 0
		}
	}
	return out
}

// Table returns the physical table with the given name.
func (m *Manager) Table(name string) (*Table, error) {
	t, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// Tables returns all physical tables sorted by name.
func (m *Manager) Tables() []*Table {
	out := make([]*Table, 0, len(m.tables))
	for _, t := range m.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].def.Name < out[j].def.Name })
	return out
}

// Table is one physical table: a multi-rooted B-tree plus the memory node
// each partition's data lives on. All row operations return the virtual cost
// of the access as observed from the caller's core: the socket component of
// the distance prices cross-socket DRAM pulls and, on hierarchical machines,
// the die component prices the on-package hop to the memory-controller die.
//
// A Table is single-owner, like the btree.MultiRooted it wraps: it holds no
// lock, so it must never be reached from two goroutines at once. Nothing does.
// A priced run is one goroutine, the planner included; engine.New's loader
// workers Fill disjoint slots of a Load, never the Table; the harness pool
// gives every point its own engine and so its own Manager; executed-mode
// executors touch only backend.HashBackend, and loadBackend reads the priced
// tables on the caller's goroutine before any executor starts; the repo
// benchmark's per-layer replay drives its tables serially.
type Table struct {
	def    *schema.Table
	layout *schema.Layout
	domain *numa.Domain
	tree   *btree.MultiRooted
	homes  []topology.SocketID

	// avgRowBytes tracks an approximate row size for traffic accounting: an
	// integer moving average over every row loaded or inserted, in that order.
	avgRowBytes int
}

// Name returns the table name.
func (t *Table) Name() string { return t.def.Name }

// Len returns the number of rows.
func (t *Table) Len() int { return t.tree.Len() }

// NumPartitions returns the number of physical partitions.
func (t *Table) NumPartitions() int { return t.tree.NumPartitions() }

// Bounds returns the partition lower bounds.
func (t *Table) Bounds() []schema.Key { return t.tree.Bounds() }

// PartitionSizes returns the number of rows in each partition.
func (t *Table) PartitionSizes() []int { return t.tree.PartitionSizes() }

// PartitionFor returns the index of the partition owning key.
func (t *Table) PartitionFor(key schema.Key) int { return t.tree.PartitionFor(key) }

// Home returns the memory node of partition i.
func (t *Table) Home(i int) topology.SocketID {
	if i < 0 || i >= len(t.homes) {
		return 0
	}
	return t.homes[i]
}

// SetHome moves partition i's data to memory node s. (The data itself is in
// Go heap memory; only the cost model placement changes, which is the aspect
// the experiments measure.)
func (t *Table) SetHome(i int, s topology.SocketID) error {
	if i < 0 || i >= len(t.homes) {
		return fmt.Errorf("storage: partition %d out of range [0,%d)", i, len(t.homes))
	}
	t.homes[i] = s
	return nil
}

// Homes returns a copy of the per-partition memory nodes.
func (t *Table) Homes() []topology.SocketID {
	return append([]topology.SocketID(nil), t.homes...)
}

// indexProbeCost models a root-to-leaf B-tree traversal within a partition
// whose data lives on memory node home, performed from core from. The row
// payload spans rowBytes/64 cache lines, each of which pays the DRAM
// placement cost; on top of that comes the per-row CPU work.
func (t *Table) indexProbeCost(from topology.CoreID, home topology.SocketID, rowBytes int) numa.Cost {
	lines := numa.Cost(rowBytes / 64)
	if lines < 1 {
		lines = 1
	}
	return numa.RowWork + 2*numa.LocalAccess + lines*t.domain.CoreDRAMCost(from, home)
}

// accessCost prices one row operation on partition p and records its traffic.
func (t *Table) accessCost(from topology.CoreID, p, rowBytes int) numa.Cost {
	home := t.Home(p)
	t.domain.Top.RecordTraffic(t.domain.Top.SocketOf(from), home, int64(rowBytes))
	return t.indexProbeCost(from, home, rowBytes)
}

// The positional operations below (ReadIn, InsertIn, ReplaceIn, IncrementIn,
// DeleteIn) are the engine's hot path: the caller has resolved the key's
// partition p, and rows are flat, in the table's Layout. The keyed ones (Read,
// Insert, Update, Delete, Scan) resolve the partition and take and return
// boxed rows, decoding and encoding at that edge; the costs of both are the
// same, priced from row sizes only.

// Layout returns the flat row format of the table.
func (t *Table) Layout() *schema.Layout { return t.layout }

// ReadIn returns the flat row stored under key in partition p. The row is the
// stored one, not a copy.
func (t *Table) ReadIn(p int, from topology.CoreID, key schema.Key) ([]byte, numa.Cost, error) {
	cost := t.accessCost(from, p, t.rowBytes())
	row, ok := t.tree.GetIn(p, key)
	if !ok {
		return nil, cost, ErrNotFound
	}
	return row, cost, nil
}

// InsertIn adds the flat row under key in partition p, which keeps the slice;
// it fails with ErrDuplicate if the key exists.
func (t *Table) InsertIn(p int, from topology.CoreID, key schema.Key, row []byte) (numa.Cost, error) {
	size := t.layout.Size(row)
	cost := t.accessCost(from, p, size)
	if !t.tree.InsertIn(p, key, row) {
		return cost, ErrDuplicate
	}
	t.avgRowBytes = nextAvgRowBytes(t.avgRowBytes, size)
	return cost + numa.LocalAccess, nil
}

// ReplaceIn stores the flat row under the existing key in partition p in
// place of the row there, and keeps the slice.
func (t *Table) ReplaceIn(p int, from topology.CoreID, key schema.Key, row []byte) (numa.Cost, error) {
	return t.updateIn(p, from, key, func([]byte) []byte { return row })
}

// IncrementIn adds one to the last column of the row under key in partition
// p, in place (schema.Layout.Increment): the update of an action that carries
// no row.
func (t *Table) IncrementIn(p int, from topology.CoreID, key schema.Key) (numa.Cost, error) {
	return t.updateIn(p, from, key, func(row []byte) []byte {
		t.layout.Increment(row)
		return row
	})
}

// updateIn applies fn to the flat row under key in partition p.
func (t *Table) updateIn(p int, from topology.CoreID, key schema.Key, fn func([]byte) []byte) (numa.Cost, error) {
	cost := t.accessCost(from, p, t.rowBytes())
	if !t.tree.UpdateIn(p, key, fn) {
		return cost, ErrNotFound
	}
	return cost + numa.LocalAccess, nil
}

// DeleteIn removes the row under key in partition p.
func (t *Table) DeleteIn(p int, from topology.CoreID, key schema.Key) (numa.Cost, error) {
	cost := t.accessCost(from, p, t.rowBytes())
	if !t.tree.DeleteIn(p, key) {
		return cost, ErrNotFound
	}
	return cost, nil
}

// AscendKeys visits every key in ascending order, without cost accounting,
// until fn returns false.
func (t *Table) AscendKeys(fn func(schema.Key) bool) {
	t.tree.Scan(0, ^schema.Key(0), func(k schema.Key, _ []byte) bool { return fn(k) })
}

// Read returns the row stored under key.
func (t *Table) Read(from topology.CoreID, key schema.Key) (schema.Row, numa.Cost, error) {
	row, cost, err := t.ReadIn(t.tree.PartitionFor(key), from, key)
	if err != nil {
		return nil, cost, err
	}
	return t.layout.Decode(row), cost, nil
}

// Insert adds a new row under key; it fails with ErrDuplicate if the key
// exists, and before any access if row does not fit the table's layout.
func (t *Table) Insert(from topology.CoreID, key schema.Key, row schema.Row) (numa.Cost, error) {
	b, err := t.layout.Encode(row)
	if err != nil {
		return 0, fmt.Errorf("storage: inserting into %s: %w", t.def.Name, err)
	}
	return t.InsertIn(t.tree.PartitionFor(key), from, key, b)
}

// Update replaces the row under key with fn's result; a result that does not
// fit the table's layout leaves the row as it was and is an error.
func (t *Table) Update(from topology.CoreID, key schema.Key, fn func(schema.Row) schema.Row) (numa.Cost, error) {
	var encErr error
	cost, err := t.updateIn(t.tree.PartitionFor(key), from, key, func(old []byte) []byte {
		b, err := t.layout.Encode(fn(t.layout.Decode(old)))
		if err != nil {
			encErr = fmt.Errorf("storage: updating %s: %w", t.def.Name, err)
			return old
		}
		return b
	})
	if err == nil {
		err = encErr
	}
	return cost, err
}

// Delete removes the row under key.
func (t *Table) Delete(from topology.CoreID, key schema.Key) (numa.Cost, error) {
	return t.DeleteIn(t.tree.PartitionFor(key), from, key)
}

// Scan visits rows in [from, to) in key order and returns the access cost,
// charged per partition touched.
func (t *Table) Scan(caller topology.CoreID, from, to schema.Key, fn func(schema.Key, schema.Row) bool) numa.Cost {
	var cost numa.Cost
	start := t.tree.PartitionFor(from)
	endKey := to
	if endKey > 0 {
		endKey--
	}
	end := t.tree.PartitionFor(endKey)
	for p := start; p <= end && p < t.tree.NumPartitions(); p++ {
		cost += t.indexProbeCost(caller, t.Home(p), t.rowBytes())
	}
	rows := 0
	t.tree.Scan(from, to, func(k schema.Key, r []byte) bool {
		rows++
		return fn(k, t.layout.Decode(r))
	})
	cost += numa.Cost(rows) * numa.LocalAccess
	return cost
}

// LoadFunc populates the empty table, without cost accounting, with the n rows
// gen writes for 0 … n-1: a Load filled in one range.
func (t *Table) LoadFunc(n int, gen func(i int, w *schema.RowWriter)) error {
	l := t.NewLoad(n)
	if err := l.Fill(0, n, gen); err != nil {
		return err
	}
	return l.Finish()
}

// Load stages a bulk load into an empty table. A Fill writes only its rows'
// slots, so disjoint Fills may run on goroutines that are joined before Finish.
type Load struct {
	t     *Table
	keys  []schema.Key
	rows  [][]byte
	sizes []int
}

// NewLoad allocates the staging slots of an n-row load into t.
func (t *Table) NewLoad(n int) *Load {
	return &Load{t, make([]schema.Key, n), make([][]byte, n), make([]int, n)}
}

// Fill stages rows lo … hi-1 of the generator, each copied out of the writer
// into one allocation of its own, and stops at the first row that does not fit
// the table's layout or whose key cannot be extracted, naming the table and
// the row.
func (l *Load) Fill(lo, hi int, gen func(i int, w *schema.RowWriter)) error {
	w := l.t.layout.Writer()
	for i := lo; i < hi; i++ {
		w.Reset()
		gen(i, w)
		row, size, err := w.Row()
		var key schema.Key
		if err == nil {
			key, err = l.t.layout.Key(row)
		}
		if err != nil {
			return fmt.Errorf("storage: loading %s row %d: %w", l.t.def.Name, i, err)
		}
		l.keys[i], l.rows[i], l.sizes[i] = key, bytes.Clone(row), size
	}
	return nil
}

// Finish folds the row sizes into the table's average in row order and builds
// the B-tree bottom-up (btree.MultiRooted.Load): keys that do not strictly
// ascend, or a table that holds rows, are errors naming the table and row.
func (l *Load) Finish() error {
	avg := l.t.avgRowBytes
	for _, size := range l.sizes {
		avg = nextAvgRowBytes(avg, size)
	}
	if err := l.t.tree.Load(l.keys, l.rows); err != nil {
		return fmt.Errorf("storage: loading %s: %w", l.t.def.Name, err)
	}
	l.t.avgRowBytes = avg
	return nil
}

// nextAvgRowBytes folds one row of size bytes into the moving average avg
// (0: no row seen yet).
func nextAvgRowBytes(avg, size int) int {
	if avg == 0 {
		return size
	}
	return (avg*15 + size) / 16
}

func (t *Table) rowBytes() int {
	if t.avgRowBytes == 0 {
		return 64
	}
	return t.avgRowBytes
}

// Split divides the partition owning key at into two and homes the new
// partition on the same node as the original. It returns the index of the new
// partition and the number of rows that moved into it.
func (t *Table) Split(at schema.Key) (int, int, error) {
	oldIdx := t.tree.PartitionFor(at)
	newIdx, err := t.tree.Split(at)
	if err != nil {
		return 0, 0, err
	}
	home := t.homes[oldIdx]
	t.homes = append(t.homes, 0)
	copy(t.homes[newIdx+1:], t.homes[newIdx:])
	t.homes[newIdx] = home
	right, _ := t.tree.Partition(newIdx) // in range: Split just created it
	return newIdx, right.Len(), nil
}

// Merge combines partitions i and i+1; the merged partition keeps partition
// i's memory home. It returns the number of rows that moved.
func (t *Table) Merge(i int) (int, error) {
	right, err := t.tree.Partition(i + 1)
	if i < 0 || err != nil {
		return 0, fmt.Errorf("storage: cannot merge partition %d of %d", i, t.tree.NumPartitions())
	}
	moved := right.Len()
	if err := t.tree.Merge(i); err != nil {
		return 0, err
	}
	t.homes = append(t.homes[:i+1], t.homes[i+2:]...)
	return moved, nil
}

// Repartition rebuilds the table around new bounds and homes. It returns the
// number of rows whose partition changed.
func (t *Table) Repartition(bounds []schema.Key, homes []topology.SocketID) (int, error) {
	moved, err := t.tree.Repartition(bounds)
	if err != nil {
		return 0, err
	}
	t.homes = normalizeHomes(homes, len(bounds))
	return moved, nil
}
