package btree

import (
	"fmt"

	"atrapos/internal/schema"
)

// Load populates the empty multi-rooted tree with keys[i] -> row i, where row
// i is the next lens[i] bytes of the slabs read back to back; keys must be
// strictly ascending and the lens must add up to the slabs' bytes. The run is
// cut at the partition bounds and every partition's sub-tree is built
// bottom-up once (Section III-A: one sub-tree root per logical partition),
// instead of pushing rows one at a time through Insert, whose leaf splits leave
// ascending input half full.
//
// Nodes are full: a partition of n rows gets ceil(n/maxKeys()) leaves with the
// remainder spread evenly, so only a one-leaf sub-tree holds fewer than degree-1
// entries, and each internal level takes up to maxKeys()+1 children the same
// way. Each separator is the first key of the child to its right, the rule
// splitChild follows.
//
// Load takes ownership of the slabs: the leaves' rows are capped sub-slices
// (cap == len) of them, and only a leaf whose rows straddle two slabs gets a
// copy. Each partition's leaves pack their keys and ends into capped
// sub-slices of one slab of their own (build), and an internal level's nodes
// share that level's arrays the same way, so an Insert or join that grows a
// node reallocates it instead of writing into its neighbour. The caller must
// not use the slabs once Load has returned; keys and lens are not kept.
func (m *MultiRooted) Load(keys []schema.Key, lens []uint32, slabs [][]byte) error {
	if len(keys) != len(lens) {
		return fmt.Errorf("btree: load of %d keys with %d rows", len(keys), len(lens))
	}
	if n := m.Len(); n > 0 {
		return fmt.Errorf("btree: load into a tree that holds %d entries", n)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("btree: load row %d: key %d does not ascend past row %d's key %d", i, keys[i], i-1, keys[i-1])
		}
	}
	var rowBytes, slabBytes int
	for _, n := range lens {
		rowBytes += int(n)
	}
	for _, s := range slabs {
		slabBytes += len(s)
	}
	if rowBytes != slabBytes {
		return fmt.Errorf("btree: load of %d row bytes from %d slab bytes", rowBytes, slabBytes)
	}
	src := slabReader{slabs: slabs}
	lo := 0
	for p, t := range m.roots {
		hi := len(keys)
		if p+1 < len(m.bounds) {
			next := m.bounds[p+1]
			hi = lo + search(keys[lo:], next, 0, 0)
		}
		*t = build(keys[lo:hi], lens[lo:hi], &src)
		lo = hi
	}
	return nil
}

// slabReader hands out the bytes of slabs in order.
type slabReader struct {
	slabs [][]byte
	at    int // offset of the next byte in slabs[0]
}

// take returns the next n bytes: a capped sub-slice of one slab, or a copy
// when they straddle slabs.
func (r *slabReader) take(n int) []byte {
	if n == 0 {
		return nil
	}
	for r.at == len(r.slabs[0]) {
		r.slabs, r.at = r.slabs[1:], 0
	}
	if s, end := r.slabs[0], r.at+n; end <= len(s) {
		r.at = end
		return s[end-n : end : end]
	}
	b := make([]byte, 0, n)
	for len(b) < n {
		s := r.slabs[0][r.at:]
		k := min(len(s), n-len(b))
		b = append(b, s[:k]...)
		if r.at += k; r.at == len(r.slabs[0]) {
			r.slabs, r.at = r.slabs[1:], 0
		}
	}
	return b
}

// build returns a tree over the ascending run keys whose rows are lens bytes
// long each, read from src. Its leaves keep src's bytes, and their keys (based
// at each leaf's first) and ends are packed at each leaf's narrowest widths
// into capped sub-slices of one slab, sized by a first pass over the leaves.
func build(keys []schema.Key, lens []uint32, src *slabReader) Tree {
	n := len(keys)
	if n == 0 {
		return *New()
	}
	level := make([]*node, nodesFor(n, maxKeys()))
	firsts := make([]schema.Key, len(level)) // the first key under each node of level
	size := 0
	for i, lo := 0, 0; i < len(level); i++ {
		hi := lo + width(n, len(level), i)
		end := uint64(0)
		for _, l := range lens[lo:hi] {
			end += uint64(l)
		}
		ks, es := shiftFor(uint64(keys[hi-1]-keys[lo])), shiftFor(end)
		level[i] = &node{leaf: true, keyShift: ks, endShift: es, base: keys[lo], rows: src.take(int(end))}
		firsts[i] = keys[lo]
		if i > 0 {
			level[i-1].next = level[i]
		}
		size += (hi-lo)<<ks + (hi-lo)<<es
		lo = hi
	}
	slab := make(packed, size)
	carve := func(s uint8, k int) packed {
		p := slab[: k<<s : k<<s]
		slab = slab[k<<s:]
		return p
	}
	for i, lo := 0, 0; i < len(level); i++ {
		l, hi := level[i], lo+width(n, len(level), i)
		l.offs, l.ends = carve(l.keyShift, hi-lo), carve(l.endShift, hi-lo)
		l.offs.setOffsets(l.keyShift, keys[lo:hi], l.base)
		l.ends.setEnds(l.endShift, lens[lo:hi])
		lo = hi
	}
	for len(level) > 1 {
		up := make([]*node, nodesFor(len(level), maxKeys()+1))
		upFirsts := make([]schema.Key, len(up))
		for i, lo := 0, 0; i < len(up); i++ {
			hi := lo + width(len(level), len(up), i)
			up[i] = &node{keys: firsts[lo+1 : hi : hi], children: level[lo:hi:hi]}
			upFirsts[i] = firsts[lo]
			lo = hi
		}
		level, firsts = up, upFirsts
	}
	return Tree{root: level[0], size: n}
}

// nodesFor is the number of nodes of at most per entries that n entries fill.
func nodesFor(n, per int) int { return (n + per - 1) / per }

// width is the entry count of node i when n entries are spread evenly over
// nodes nodes: the first n%nodes take one more.
func width(n, nodes, i int) int {
	if i < n%nodes {
		return n/nodes + 1
	}
	return n / nodes
}
