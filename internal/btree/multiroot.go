package btree

import (
	"fmt"

	"atrapos/internal/schema"
)

// MultiRooted is the multi-rooted B-tree of PLP and ATraPos: the key space of
// a table is range partitioned and each range owns a private sub-tree root.
// It is single-owner like the trees it holds (see Tree): no lock guards the
// boundary table, and repartitioning hands nodes from one sub-tree to another.
type MultiRooted struct {
	bounds []schema.Key // bounds[i] is the inclusive lower bound of partition i; bounds[0] == 0
	roots  []*Tree
}

// NewMultiRooted builds a multi-rooted tree with the given partition lower
// bounds. The first bound must be 0 (the partition covering the smallest
// keys); bounds must be strictly ascending.
func NewMultiRooted(bounds []schema.Key) (*MultiRooted, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("btree: multi-rooted tree needs at least one partition")
	}
	if bounds[0] != 0 {
		return nil, fmt.Errorf("btree: first partition bound must be 0, got %d", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("btree: partition bounds must be strictly ascending at %d", i)
		}
	}
	m := &MultiRooted{bounds: append([]schema.Key(nil), bounds...)}
	m.roots = make([]*Tree, len(bounds))
	for i := range m.roots {
		m.roots[i] = New()
	}
	return m, nil
}

// UniformBounds computes partition lower bounds that split the integer key
// range [0, maxKey) into n equal ranges, the "naïve" range partitioning that
// assigns one partition per core (Section IV, proof of concept). When the key
// space is smaller than n, fewer partitions are produced so that the bounds
// stay strictly ascending (a two-row table cannot have eighty partitions).
func UniformBounds(maxKey int64, n int) []schema.Key {
	if n < 1 {
		n = 1
	}
	if maxKey > 0 && int64(n) > maxKey {
		n = int(maxKey)
	}
	bounds := make([]schema.Key, 0, n)
	for i := 0; i < n; i++ {
		b := schema.KeyFromInt(maxKey * int64(i) / int64(n))
		if i == 0 {
			b = 0
		}
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	if len(bounds) == 0 {
		bounds = []schema.Key{0}
	}
	return bounds
}

// NumPartitions returns the number of sub-trees.
func (m *MultiRooted) NumPartitions() int {
	return len(m.roots)
}

// Bounds returns a copy of the partition lower bounds.
func (m *MultiRooted) Bounds() []schema.Key {
	return append([]schema.Key(nil), m.bounds...)
}

// PartitionFor returns the index of the partition that owns key: its last bound <= key.
func (m *MultiRooted) PartitionFor(key schema.Key) int {
	return childIndex(m.bounds, key, 0, 0) - 1
}

// fences returns partition p's key range; the last one has no upper fence.
func (m *MultiRooted) fences(p int) fences {
	if p+1 < len(m.bounds) {
		return fences{m.bounds[p], m.bounds[p+1]}
	}
	return fences{lo: m.bounds[p]}
}

// Partition returns the sub-tree of partition i.
func (m *MultiRooted) Partition(i int) (*Tree, error) {
	if i < 0 || i >= len(m.roots) {
		return nil, fmt.Errorf("btree: partition %d out of range [0,%d)", i, len(m.roots))
	}
	return m.roots[i], nil
}

// Get returns the row stored under key.
func (m *MultiRooted) Get(key schema.Key) ([]byte, bool) {
	return m.GetIn(m.PartitionFor(key), key)
}

// GetIn is Get for a caller that has resolved key's partition p already.
func (m *MultiRooted) GetIn(p int, key schema.Key) ([]byte, bool) {
	return m.roots[p].get(key, m.fences(p))
}

// Insert stores value under key in the owning partition unless key is
// present, and reports whether it did.
func (m *MultiRooted) Insert(key schema.Key, value []byte) bool {
	return m.InsertIn(m.PartitionFor(key), key, value)
}

// InsertIn is Insert for a caller that has resolved key's partition p already.
func (m *MultiRooted) InsertIn(p int, key schema.Key, value []byte) bool {
	return m.roots[p].insert(key, value, m.fences(p))
}

// Update applies fn to the row under key in the owning partition.
func (m *MultiRooted) Update(key schema.Key, fn func([]byte) []byte) bool {
	return m.UpdateIn(m.PartitionFor(key), key, fn)
}

// UpdateIn is Update for a caller that has resolved key's partition p already.
func (m *MultiRooted) UpdateIn(p int, key schema.Key, fn func([]byte) []byte) bool {
	return m.roots[p].update(key, fn, m.fences(p))
}

// Delete removes key from its owning partition.
func (m *MultiRooted) Delete(key schema.Key) bool {
	return m.DeleteIn(m.PartitionFor(key), key)
}

// DeleteIn is Delete for a caller that has resolved key's partition p already.
func (m *MultiRooted) DeleteIn(p int, key schema.Key) bool {
	return m.roots[p].delete(key, m.fences(p))
}

// Len returns the total number of entries across all partitions.
func (m *MultiRooted) Len() int {
	total := 0
	for _, t := range m.roots {
		total += t.Len()
	}
	return total
}

// PartitionSizes returns the number of entries in each partition.
func (m *MultiRooted) PartitionSizes() []int {
	out := make([]int, len(m.roots))
	for i, t := range m.roots {
		out[i] = t.Len()
	}
	return out
}

// Scan visits entries with from <= key < to across partition boundaries in
// ascending key order.
func (m *MultiRooted) Scan(from, to schema.Key, fn func(schema.Key, []byte) bool) {
	start := m.PartitionFor(from)
	for i := start; i < len(m.roots); i++ {
		if i > start && m.bounds[i] >= to {
			return
		}
		stopped := false
		m.roots[i].Scan(from, to, func(k schema.Key, v []byte) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Split divides the partition that owns key `at` into two partitions at key
// `at`: the original partition keeps [lower, at) and a new partition holds
// [at, upper). It returns the index of the new partition. The sub-tree is cut
// along one root-to-leaf path; the virtual cost stays proportional to the
// entries that change partition, which is what the Figure 9 experiment measures.
func (m *MultiRooted) Split(at schema.Key) (int, error) {
	idx := m.PartitionFor(at)
	if m.bounds[idx] == at {
		return 0, fmt.Errorf("btree: partition already starts at key %d", at)
	}
	right := m.roots[idx].splitAt(at)
	// The new partition goes in after idx.
	newIdx := idx + 1
	m.bounds = append(m.bounds, 0)
	copy(m.bounds[newIdx+1:], m.bounds[newIdx:])
	m.bounds[newIdx] = at
	m.roots = append(m.roots, nil)
	copy(m.roots[newIdx+1:], m.roots[newIdx:])
	m.roots[newIdx] = right
	return newIdx, nil
}

// Merge combines partition i and partition i+1 into a single partition that
// keeps the lower bound of partition i. It returns an error if i is the last
// partition.
func (m *MultiRooted) Merge(i int) error {
	if i < 0 || i+1 >= len(m.roots) {
		return fmt.Errorf("btree: cannot merge partition %d of %d", i, len(m.roots))
	}
	m.roots[i].join(m.roots[i+1])
	m.roots = append(m.roots[:i+1], m.roots[i+2:]...)
	m.bounds = append(m.bounds[:i+1], m.bounds[i+2:]...)
	return nil
}

// Repartition rebuilds the multi-rooted tree around a new set of bounds. It is
// the bulk operation behind large repartitioning decisions (e.g. adapting from
// 80 to 70 partitions after a socket failure). Every old sub-tree is cut at the
// new bounds that fall strictly inside its range and the pieces of each new
// partition are joined in key order, so a sub-tree whose range is unchanged is
// reused as is. Returns the number of entries that changed partition, counted
// per piece.
func (m *MultiRooted) Repartition(newBounds []schema.Key) (moved int, err error) {
	if len(newBounds) == 0 || newBounds[0] != 0 {
		return 0, fmt.Errorf("btree: invalid new bounds")
	}
	for i := 1; i < len(newBounds); i++ {
		if newBounds[i] <= newBounds[i-1] {
			return 0, fmt.Errorf("btree: new bounds must be strictly ascending")
		}
	}
	old := m.bounds
	roots := make([]*Tree, len(newBounds))
	lo := 1 // newBounds[lo:hi] are the bounds strictly inside old partition oi
	for oi, t := range m.roots {
		for lo < len(newBounds) && newBounds[lo] <= old[oi] {
			lo++
		}
		hi := lo
		for hi < len(newBounds) && (oi+1 == len(old) || newBounds[hi] < old[oi+1]) {
			hi++
		}
		// Cut from the highest bound down, so each leaf is counted once; what
		// remains of t belongs to new partition lo-1, after the pieces that
		// earlier old partitions left there.
		for ni := hi - 1; ni >= lo-1; ni-- {
			piece := t
			if ni >= lo {
				piece = t.splitAt(newBounds[ni])
			}
			// An entry "moved" if its new partition range differs from its old one.
			if oi >= len(newBounds) || newBounds[ni] != old[oi] {
				moved += piece.size
			}
			if roots[ni] == nil {
				roots[ni] = piece
			} else {
				roots[ni].join(piece)
			}
		}
	}
	m.bounds = append([]schema.Key(nil), newBounds...)
	m.roots = roots
	return moved, nil
}
