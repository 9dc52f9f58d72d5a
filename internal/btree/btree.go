// Package btree implements the in-memory B+-tree used as the physical
// representation of tables and indexes, and the multi-rooted B-tree that PLP
// and ATraPos use to physically partition a table: one sub-tree root per
// logical partition, so that all accesses within a partition are local to the
// worker thread that owns it (Section III-A, "PLP").
package btree

import "atrapos/internal/schema"

// degree is the minimum fan-out of internal nodes. Leaves hold up to
// 2*degree-1 entries.
const degree = 32

type node struct {
	leaf     bool
	keys     []schema.Key
	values   []schema.Row // only for leaves
	children []*node      // only for internal nodes
	next     *node        // leaf chaining for range scans
}

// Tree is a single-rooted B+-tree. It is single-owner: it holds no lock, so a
// tree (and the MultiRooted it belongs to) must never be shared between
// goroutines. A priced run is one goroutine, executed mode stores its rows in
// backend.HashBackend, and repartitioning moves nodes between trees, which no
// per-tree mutex could protect anyway.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Get returns the row stored under key.
func (t *Tree) Get(key schema.Key) (schema.Row, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := findKey(n.keys, key)
	if !ok {
		return nil, false
	}
	return n.values[i], true
}

// Insert stores value under key, replacing any previous value. It reports
// whether a new key was inserted (false means an existing key was updated).
func (t *Tree) Insert(key schema.Key, value schema.Row) bool {
	r := t.root
	if len(r.keys) == maxKeys() {
		newRoot := &node{children: []*node{r}}
		splitChild(newRoot, 0)
		t.root = newRoot
		r = newRoot
	}
	inserted := insertNonFull(r, key, value)
	if inserted {
		t.size++
	}
	return inserted
}

func maxKeys() int { return 2*degree - 1 }

func insertNonFull(n *node, key schema.Key, value schema.Row) bool {
	if n.leaf {
		i, ok := findKey(n.keys, key)
		if ok {
			n.values[i] = value
			return false
		}
		i = upperBound(n.keys, key)
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = value
		return true
	}
	i := childIndex(n.keys, key)
	if len(n.children[i].keys) == maxKeys() {
		splitChild(n, i)
		if key >= n.keys[i] {
			i++
		}
	}
	return insertNonFull(n.children[i], key, value)
}

// splitChild splits the full child at index i of parent p.
func splitChild(p *node, i int) {
	child := p.children[i]
	mid := len(child.keys) / 2
	var sep schema.Key
	right := &node{leaf: child.leaf}
	if child.leaf {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid:]...)
		right.values = append(right.values, child.values[mid:]...)
		child.keys = child.keys[:mid]
		child.values = child.values[:mid]
		right.next = child.next
		child.next = right
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	p.keys = append(p.keys, 0)
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = sep
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

// Delete removes key from the tree and reports whether it was present.
// Deletion uses lazy structural maintenance: leaves may under-fill, which is
// acceptable for the workloads at hand (deletes are rare in TATP/TPC-C) and
// keeps the range-scan chain intact.
func (t *Tree) Delete(key schema.Key) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := findKey(n.keys, key)
	if !ok {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// Update applies fn to the row stored under key in place and reports whether
// the key was found. fn receives the stored row and returns the new row.
func (t *Tree) Update(key schema.Key, fn func(schema.Row) schema.Row) bool {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := findKey(n.keys, key)
	if !ok {
		return false
	}
	n.values[i] = fn(n.values[i])
	return true
}

// Scan visits entries with from <= key < to in ascending key order, calling fn
// for each. Scanning stops early if fn returns false.
func (t *Tree) Scan(from, to schema.Key, fn func(schema.Key, schema.Row) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, from)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < from {
				continue
			}
			if k >= to {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// Ascend visits every entry in ascending key order.
func (t *Tree) Ascend(fn func(schema.Key, schema.Row) bool) {
	t.Scan(0, ^schema.Key(0), fn)
}

// Min returns the smallest key in the tree.
func (t *Tree) Min() (schema.Key, bool) {
	n := edge(t.root, false)
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[0], true
}

// Max returns the largest key in the tree.
func (t *Tree) Max() (schema.Key, bool) {
	n := edge(t.root, true)
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[len(n.keys)-1], true
}

// --- helpers ---

// findKey returns the index of key in keys and whether it is present.
func findKey(keys []schema.Key, key schema.Key) (int, bool) {
	i := lowerBound(keys, key)
	if i < len(keys) && keys[i] == key {
		return i, true
	}
	return i, false
}

// lowerBound returns the first index whose key is >= key.
func lowerBound(keys []schema.Key, key schema.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index whose key is > key.
func upperBound(keys []schema.Key, key schema.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child slot to follow for key in an internal node
// whose separator keys partition the space as [..k0) [k0..k1) ... [kn..].
func childIndex(keys []schema.Key, key schema.Key) int {
	return upperBound(keys, key)
}
