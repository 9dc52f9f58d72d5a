// Package btree implements the in-memory B+-tree used as the physical
// representation of tables and indexes, and the multi-rooted B-tree that PLP
// and ATraPos use to physically partition a table: one sub-tree root per
// logical partition, so that all accesses within a partition are local to the
// worker thread that owns it (Section III-A, "PLP").
package btree

import (
	"slices"

	"atrapos/internal/schema"
)

// degree is the minimum fan-out of internal nodes. Leaves hold up to
// 2*degree-1 entries.
const degree = 32

type node struct {
	leaf     bool
	keys     []schema.Key
	values   [][]byte // only for leaves
	children []*node  // only for internal nodes
	next     *node    // leaf chaining for range scans
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
func (t *Tree) Get(key schema.Key) ([]byte, bool) { return t.get(key, fences{}) }

func (t *Tree) get(key schema.Key, f fences) ([]byte, bool) {
	n, i, ok := find(t.root, key, f)
	if !ok {
		return nil, false
	}
	return n.values[i], true
}

// Insert stores value under key unless key is present, and reports whether it
// did: an existing key keeps its row. It descends once, and a second time,
// splitting, only when key is absent and its leaf is full.
func (t *Tree) Insert(key schema.Key, value []byte) bool { return t.insert(key, value, fences{}) }

func (t *Tree) insert(key schema.Key, value []byte, f fences) bool {
	n, i, ok := find(t.root, key, f)
	if ok {
		return false
	}
	if len(n.keys) == maxKeys() {
		n, i = t.splitDown(key, f)
	}
	n.keys = slices.Insert(n.keys, i, key)
	n.values = slices.Insert(n.values, i, value)
	t.size++
	return true
}

func maxKeys() int { return 2*degree - 1 }

// splitDown descends again, fenced by f, to the full leaf an absent key goes
// to, splitting the root and every full child on the way as a top-down B-tree
// insert does, and returns the leaf the key now goes to and its position.
// Only an insert that will add a key splits, so a duplicate changes nothing.
func (t *Tree) splitDown(key schema.Key, f fences) (*node, int) {
	n := t.root
	if len(n.keys) == maxKeys() {
		t.root = &node{children: []*node{n}}
		splitChild(t.root, 0)
		n = t.root
	}
	for !n.leaf {
		i := childIndex(n.keys, key, f.lo, f.hi)
		if len(n.children[i].keys) == maxKeys() {
			splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		if i > 0 {
			f.lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			f.hi = n.keys[i]
		}
		n = n.children[i]
	}
	return n, search(n.keys, key, f.lo, f.hi)
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
func (t *Tree) Delete(key schema.Key) bool { return t.delete(key, fences{}) }

func (t *Tree) delete(key schema.Key, f fences) bool {
	n, i, ok := find(t.root, key, f)
	if ok {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.values = append(n.values[:i], n.values[i+1:]...)
		t.size--
	}
	return ok
}

// Update applies fn to the row stored under key in place and reports whether
// the key was found. fn receives the stored row and returns the new row.
func (t *Tree) Update(key schema.Key, fn func([]byte) []byte) bool {
	return t.update(key, fn, fences{})
}

func (t *Tree) update(key schema.Key, fn func([]byte) []byte, f fences) bool {
	n, i, ok := find(t.root, key, f)
	if ok {
		n.values[i] = fn(n.values[i])
	}
	return ok
}

// Scan visits entries with from <= key < to in ascending key order, calling fn
// for each. Scanning stops early if fn returns false.
func (t *Tree) Scan(from, to schema.Key, fn func(schema.Key, []byte) bool) {
	n, i, _ := find(t.root, from, fences{})
	walk(n, i, func(k schema.Key, v []byte) bool { return k < to && fn(k, v) })
}

// Ascend visits every entry in ascending key order, the largest key included.
func (t *Tree) Ascend(fn func(schema.Key, []byte) bool) { walk(edge(t.root, false), 0, fn) }

// walk calls fn on the entries from leaf n's i-th on until fn returns false.
func walk(n *node, i int, fn func(schema.Key, []byte) bool) {
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.values[i]) {
				return
			}
		}
	}
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

// fences bracket a node's keys: its partition's [lo, hi) at a partition root,
// its parent's separators below. hi <= lo (the zero value) means none.
type fences struct{ lo, hi schema.Key }

// find descends from n, fenced by f, to key's leaf and returns it, key's lower
// bound there and whether key is there. A child's separators fence it.
func find(n *node, key schema.Key, f fences) (*node, int, bool) {
	for !n.leaf {
		i := childIndex(n.keys, key, f.lo, f.hi)
		if i > 0 {
			f.lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			f.hi = n.keys[i]
		}
		n = n.children[i]
	}
	i := search(n.keys, key, f.lo, f.hi)
	return n, i, i < len(n.keys) && n.keys[i] == key
}

// childIndex returns the child slot to follow for key in an internal node
// whose separator keys partition the space as [..k0) [k0..k1) ... [kn..]: the
// first separator above key, which is key+1's lower bound.
func childIndex(keys []schema.Key, key, lo, hi schema.Key) int {
	if key == ^schema.Key(0) {
		return len(keys)
	}
	return search(keys, key+1, lo, hi)
}

// search returns the first index of the ascending keys whose key is >= key,
// sort.Search's lower bound. Keys are dense or regularly strided in every
// workload, so it probes where key lies between the fences lo and hi (none: the
// first and last key), gallops until the answer is bracketed and binary-searches
// the bracket. Wrong fences cost probes, never the result; O(log n) at worst.
func search(keys []schema.Key, key, lo, hi schema.Key) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	if hi <= lo {
		lo, hi = keys[0], keys[n-1]
	}
	g := 0
	if key >= hi {
		g = n - 1
	} else if key > lo {
		g = min(int(float64(key-lo)*float64(n)/float64(hi-lo)), n-1)
	}
	a, b, step := -1, n, 1 // the answer lies in (a, b]: keys[a] < key <= keys[b]
	if keys[g] < key {
		for a = g; a+step < n && keys[a+step] < key; step *= 2 {
			a += step
		}
		b = min(a+step, n)
	} else {
		for b = g; b-step >= 0 && keys[b-step] >= key; step *= 2 {
			b -= step
		}
		a = max(b-step, -1)
	}
	for b-a > 1 {
		if mid := (a + b) / 2; keys[mid] < key {
			a = mid
		} else {
			b = mid
		}
	}
	return b
}
