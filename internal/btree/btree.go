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
// parallel to its keys, holds where each one ends, so row i is
// rows[ends[i-1]:ends[i]] (the first starts at 0). A row is handed out capped
// (cap == len), so an append to it reallocates instead of overwriting the
// next row, and it stays valid until the next write to the leaf's tree.
//
// A leaf's keys and ends are packed arrays, each at the narrowest width that
// held it when the leaf was loaded, split or cut: key i is base + offs[i], and
// base is the leaf's first key then. A key below the base, a key past the
// width or rows past the ends' width repack the array (fitKeys, fitEnds); a
// delete leaves it as it is. Internal nodes keep their separators in keys.
type node struct {
	leaf     bool
	keyShift uint8        // only for leaves: offs's entries are 1 << keyShift bytes
	endShift uint8        // only for leaves: ends's entries are 1 << endShift bytes
	keys     []schema.Key // only for internal nodes
	base     schema.Key   // only for leaves
	offs     packed       // only for leaves: key i - base
	ends     packed       // only for leaves
	rows     []byte       // only for leaves
	children []*node      // only for internal nodes
	next     *node        // leaf chaining for range scans
}

// count returns the entries of leaf n, or the separators of internal n.
func (n *node) count() int {
	if n.leaf {
		return n.offs.len(n.keyShift)
	}
	return len(n.keys)
}

// key returns leaf n's i-th key.
func (n *node) key(i int) schema.Key { return n.base + schema.Key(n.offs.at(n.keyShift, i)) }

// end returns where leaf n's i-th row ends in n.rows.
func (n *node) end(i int) int { return int(n.ends.at(n.endShift, i)) }

// start returns where leaf n's i-th row begins in n.rows.
func (n *node) start(i int) int {
	if i == 0 {
		return 0
	}
	return n.end(i - 1)
}

// row returns leaf n's i-th row, capped.
func (n *node) row(i int) []byte {
	lo, hi := n.start(i), n.end(i)
	return n.rows[lo:hi:hi]
}

// fitKeys repacks leaf n's keys, if they must be, so that keys from lo to hi
// fit beside them: the base moves down to lo, the width up to the narrowest
// that holds the span, with room for spare more entries. An empty leaf starts
// over at lo.
func (n *node) fitKeys(lo, hi schema.Key, spare int) {
	if c := n.count(); c > 0 {
		hi = max(hi, n.key(c-1))
		if lo >= n.base && shiftFor(uint64(hi-n.base)) <= n.keyShift {
			return
		}
		lo = min(lo, n.base)
	}
	s := shiftFor(uint64(hi - lo))
	n.offs = n.offs.repack(n.keyShift, s, uint64(n.base-lo), spare)
	n.base, n.keyShift = lo, s
}

// fitEnds widens leaf n's ends, if they must be, to hold its row bytes, with
// room for spare more entries. An empty leaf starts over at the narrowest
// width.
func (n *node) fitEnds(spare int) {
	if s := shiftFor(uint64(len(n.rows))); s > n.endShift || len(n.ends) == 0 {
		n.ends = n.ends.repack(n.endShift, s, 0, spare)
		n.endShift = s
	}
}

// insertRow copies r in as leaf n's i-th row under key.
func (n *node) insertRow(i int, key schema.Key, r []byte) {
	at := n.start(i)
	n.fitKeys(key, key, 1)
	n.offs = n.offs.insert(n.keyShift, i, uint64(key-n.base))
	n.rows = slices.Insert(n.rows, at, r...)
	n.fitEnds(1)
	n.ends = n.ends.insert(n.endShift, i, uint64(at))
	n.ends.add(n.endShift, i, uint64(len(r)))
}

// updateRow stores fn of leaf n's i-th row, handed to it capped, as that row:
// a copy over the old bytes when the length is unchanged (none when fn returns
// the stored row, changed in place), else spliced in place of them.
func (n *node) updateRow(i int, fn func([]byte) []byte) {
	lo, hi := n.start(i), n.end(i)
	r := fn(n.rows[lo:hi:hi])
	if len(r) == hi-lo {
		if lo < hi && &r[0] != &n.rows[lo] {
			copy(n.rows[lo:hi], r)
		}
		return
	}
	n.rows = slices.Replace(n.rows, lo, hi, r...)
	n.fitEnds(0)
	n.ends.add(n.endShift, i, uint64(len(r)-(hi-lo)))
}

// deleteRow removes leaf n's i-th row and its key.
func (n *node) deleteRow(i int) {
	lo, hi := n.start(i), n.end(i)
	n.offs = n.offs.delete(n.keyShift, i)
	n.ends = n.ends.delete(n.endShift, i)
	if lo < hi {
		n.rows = append(n.rows[:lo], n.rows[hi:]...)
		n.ends.add(n.endShift, i, -uint64(hi-lo))
	}
}

// moveTail moves leaf n's k > 0 entries from the i-th on into the empty leaf
// r, with room for spare more at their mean row length. The keys and the row
// bytes are copied, r's keys based at its first and its ends at 0; each side
// is left packed at its own narrowest widths.
func (n *node) moveTail(i int, r *node, spare int) {
	at, k := n.start(i), n.count()-i
	tail := len(n.rows) - at
	r.base = n.key(i)
	r.keyShift, r.endShift = shiftFor(uint64(n.key(i+k-1)-r.base)), shiftFor(uint64(tail))
	r.offs = newPacked(r.keyShift, k+spare).appendFrom(r.keyShift, n.offs, n.keyShift, i, i+k, uint64(n.base-r.base))
	r.rows = append(make([]byte, 0, tail+tail/k*spare), n.rows[at:]...)
	r.ends = newPacked(r.endShift, k+spare).appendFrom(r.endShift, n.ends, n.endShift, i, i+k, -uint64(at))
	first, ks, es := n.key(0), shiftFor(uint64(n.key(i-1)-n.key(0))), shiftFor(uint64(at))
	n.offs = n.offs[:i<<n.keyShift].repack(n.keyShift, ks, uint64(n.base-first), 0)
	n.ends = n.ends[:i<<n.endShift].repack(n.endShift, es, 0, 0)
	n.base, n.keyShift, n.endShift, n.rows = first, ks, es, n.rows[:at]
}

// appendLeaf appends leaf r's entries to leaf n's, rebasing r's keys and ends.
func (n *node) appendLeaf(r *node) {
	k := r.count()
	if k == 0 {
		return
	}
	n.fitKeys(r.key(0), r.key(k-1), k)
	at := uint64(len(n.rows))
	n.rows = append(n.rows, r.rows...)
	n.fitEnds(k)
	n.offs = n.offs.appendFrom(n.keyShift, r.offs, r.keyShift, 0, k, uint64(r.base-n.base))
	n.ends = n.ends.appendFrom(n.endShift, r.ends, r.endShift, 0, k, at)
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
	if n.count() == maxKeys() {
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
	if n.count() == maxKeys() {
		t.root = &node{children: []*node{n}}
		splitChild(t.root, 0)
		n = t.root
	}
	for !n.leaf {
		i := childIndex(n.keys, key, f.lo, f.hi)
		if n.children[i].count() == maxKeys() {
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
	return n, n.search(key, f.lo, f.hi)
}

// splitChild splits the full child at index i of parent p.
func splitChild(p *node, i int) {
	child := p.children[i]
	mid := child.count() / 2
	var sep schema.Key
	right := &node{leaf: child.leaf}
	if child.leaf {
		sep = child.key(mid)
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
		n.updateRow(i, fn)
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
		for ; i < n.count(); i++ {
			if !fn(n.key(i), n.row(i)) {
				return
			}
		}
	}
}

// Min returns the smallest key in the tree.
func (t *Tree) Min() (schema.Key, bool) {
	n := edge(t.root, false)
	if n.count() == 0 {
		return 0, false
	}
	return n.key(0), true
}

// Max returns the largest key in the tree.
func (t *Tree) Max() (schema.Key, bool) {
	n := edge(t.root, true)
	if c := n.count(); c > 0 {
		return n.key(c - 1), true
	}
	return 0, false
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
	i := n.search(key, f.lo, f.hi)
	return n, i, i < n.count() && n.key(i) == key
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
	g := guess(n, key, lo, hi)
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

// search is the package search over leaf n's keys: the same probes, each
// reading one packed offset and comparing it with key's. Every key is at or
// above the base, so a key at or below it lands at 0.
func (n *node) search(key, lo, hi schema.Key) int {
	c := n.count()
	if c == 0 || key <= n.base {
		return 0
	}
	if hi <= lo {
		lo, hi = n.key(0), n.key(c-1)
	}
	offs, s, off := n.offs, n.keyShift, uint64(key-n.base)
	g := guess(c, key, lo, hi)
	a, b, step := -1, c, 1 // the answer lies in (a, b]: offs[a] < off <= offs[b]
	if offs.at(s, g) < off {
		for a = g; a+step < c && offs.at(s, a+step) < off; step *= 2 {
			a += step
		}
		b = min(a+step, c)
	} else {
		for b = g; b-step >= 0 && offs.at(s, b-step) >= off; step *= 2 {
			b -= step
		}
		a = max(b-step, -1)
	}
	for b-a > 1 {
		if mid := (a + b) / 2; offs.at(s, mid) < off {
			a = mid
		} else {
			b = mid
		}
	}
	return b
}

// guess is where key lies among n ascending keys fenced by lo < hi, by linear
// interpolation: search's first probe.
func guess(n int, key, lo, hi schema.Key) int {
	switch {
	case key >= hi:
		return n - 1
	case key > lo:
		return min(int(float64(key-lo)*float64(n)/float64(hi-lo)), n-1)
	}
	return 0
}
