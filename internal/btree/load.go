package btree

import (
	"fmt"

	"atrapos/internal/schema"
)

// Load populates the empty multi-rooted tree with keys[i] -> rows[i]; keys must
// be strictly ascending. The run is cut at the partition bounds and every
// partition's sub-tree is built bottom-up once (Section III-A: one sub-tree
// root per logical partition), instead of pushing rows one at a time through
// Insert, whose leaf splits leave ascending input half full.
//
// Nodes are full: a partition of n rows gets ceil(n/maxKeys()) leaves with the
// remainder spread evenly, so only a one-leaf sub-tree holds fewer than degree-1
// entries, and each internal level takes up to maxKeys()+1 children the same
// way. Each separator is the first key of the child to its right, the rule
// splitChild follows.
//
// Load takes ownership of keys and rows: the leaves are capped sub-slices
// (cap == len) of them, and an internal level's nodes share that level's
// arrays the same way, so an Insert or join that grows a node reallocates it
// instead of writing into its neighbour. The caller must not use either slice
// once Load has returned.
func (m *MultiRooted) Load(keys []schema.Key, rows [][]byte) error {
	if len(keys) != len(rows) {
		return fmt.Errorf("btree: load of %d keys with %d rows", len(keys), len(rows))
	}
	if n := m.Len(); n > 0 {
		return fmt.Errorf("btree: load into a tree that holds %d entries", n)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("btree: load row %d: key %d does not ascend past row %d's key %d", i, keys[i], i-1, keys[i-1])
		}
	}
	lo := 0
	for p, t := range m.roots {
		hi := len(keys)
		if p+1 < len(m.bounds) {
			next := m.bounds[p+1]
			hi = lo + search(keys[lo:], next, 0, 0)
		}
		*t = build(keys[lo:hi], rows[lo:hi])
		lo = hi
	}
	return nil
}

// build returns a tree over the ascending run keys/rows, whose arrays its
// leaves keep.
func build(keys []schema.Key, rows [][]byte) Tree {
	n := len(keys)
	if n == 0 {
		return *New()
	}
	level := make([]*node, nodesFor(n, maxKeys()))
	firsts := make([]schema.Key, len(level)) // the first key under each node of level
	for i, lo := 0, 0; i < len(level); i++ {
		hi := lo + width(n, len(level), i)
		level[i] = &node{leaf: true, keys: keys[lo:hi:hi], values: rows[lo:hi:hi]}
		firsts[i] = keys[lo]
		if i > 0 {
			level[i-1].next = level[i]
		}
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
