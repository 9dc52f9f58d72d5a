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

// A leaf is a slotted page: its rows lie back to back in rows, and ends,
// parallel to keys, holds where each one ends, so row i is
// rows[ends[i-1]:ends[i]] (the first starts at 0). A row is handed out capped
// (cap == len), so an append to it reallocates instead of overwriting the
// next row, and it stays valid until the next write to the leaf's tree.
type node struct {
	leaf     bool
	keys     []schema.Key
	rows     []byte   // only for leaves
	ends     []uint32 // only for leaves
	children []*node  // only for internal nodes
	next     *node    // leaf chaining for range scans
}

// start returns where leaf n's i-th row begins in n.rows.
func (n *node) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return n.ends[i-1]
}

// row returns leaf n's i-th row, capped.
func (n *node) row(i int) []byte {
	lo, hi := n.start(i), n.ends[i]
	return n.rows[lo:hi:hi]
}

// insertRow copies r in as leaf n's i-th row under key.
func (n *node) insertRow(i int, key schema.Key, r []byte) {
	at := n.start(i)
	n.keys = slices.Insert(n.keys, i, key)
	n.rows = slices.Insert(n.rows, int(at), r...)
	n.ends = slices.Insert(n.ends, i, at)
	n.shiftEnds(i, len(r))
}

// setRow stores r as leaf n's i-th row: a copy over the old bytes when the
// length is unchanged (none when r is the stored row, changed in place), else
// spliced in place of them.
func (n *node) setRow(i int, r []byte) {
	lo, hi := n.start(i), n.ends[i]
	if len(r) == int(hi-lo) {
		if lo < hi && &r[0] != &n.rows[lo] {
			copy(n.rows[lo:hi], r)
		}
		return
	}
	n.rows = slices.Replace(n.rows, int(lo), int(hi), r...)
	n.shiftEnds(i, len(r)-int(hi-lo))
}

// deleteRow removes leaf n's i-th row and its key.
func (n *node) deleteRow(i int) {
	lo, hi := n.start(i), n.ends[i]
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.ends = append(n.ends[:i], n.ends[i+1:]...)
	if lo < hi {
		n.rows = append(n.rows[:lo], n.rows[hi:]...)
		n.shiftEnds(i, -int(hi-lo))
	}
}

// shiftEnds moves the ends from the i-th on by d bytes.
func (n *node) shiftEnds(i, d int) {
	if d == 0 {
		return
	}
	for j := i; j < len(n.ends); j++ {
		n.ends[j] += uint32(d)
	}
}

// moveTail moves leaf n's k > 0 entries from the i-th on into the empty leaf
// r, with room for spare more at their mean row length: the keys and the row
// bytes are copied, the ends rebased to start at 0.
func (n *node) moveTail(i int, r *node, spare int) {
	at, k := n.start(i), len(n.keys)-i
	tail := len(n.rows) - int(at)
	r.keys = append(make([]schema.Key, 0, k+spare), n.keys[i:]...)
	r.rows = append(make([]byte, 0, tail+tail/k*spare), n.rows[at:]...)
	r.ends = make([]uint32, k, k+spare)
	for j, e := range n.ends[i:] {
		r.ends[j] = e - at
	}
	n.keys, n.rows, n.ends = n.keys[:i], n.rows[:at], n.ends[:i]
}

// appendLeaf appends leaf r's entries to leaf n's, rebasing r's ends.
func (n *node) appendLeaf(r *node) {
	base := uint32(len(n.rows))
	n.keys = append(n.keys, r.keys...)
	n.rows = append(n.rows, r.rows...)
	for _, e := range r.ends {
		n.ends = append(n.ends, base+e)
	}
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
	return n.row(i), true
}

// Insert stores a copy of value under key unless key is present, and reports
// whether it did: an existing key keeps its row. It descends once, and a
// second time, splitting, only when key is absent and its leaf is full.
func (t *Tree) Insert(key schema.Key, value []byte) bool { return t.insert(key, value, fences{}) }

func (t *Tree) insert(key schema.Key, value []byte, f fences) bool {
	n, i, ok := find(t.root, key, f)
	if ok {
		return false
	}
	if len(n.keys) == maxKeys() {
		n, i = t.splitDown(key, f)
	}
	n.insertRow(i, key, value)
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
		child.moveTail(mid, right, 1) // only an insert splits a leaf, and its row may go right
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
		n.deleteRow(i)
		t.size--
	}
	return ok
}

// Update applies fn to the row stored under key and reports whether the key
// was found. fn receives the stored row, capped, and returns the new row: the
// stored one changed in place, or another whose bytes are copied in (spliced
// in when its length differs).
func (t *Tree) Update(key schema.Key, fn func([]byte) []byte) bool {
	return t.update(key, fn, fences{})
}

func (t *Tree) update(key schema.Key, fn func([]byte) []byte, f fences) bool {
	n, i, ok := find(t.root, key, f)
	if ok {
		n.setRow(i, fn(n.row(i)))
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
			if !fn(n.keys[i], n.row(i)) {
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
