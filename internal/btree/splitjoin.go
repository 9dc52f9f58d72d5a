package btree

import (
	"slices"

	"atrapos/internal/schema"
)

// Repartitioning moves sub-trees, not rows (Section III-A: a split or merge of
// the multi-rooted B-tree slices or stitches along one root-to-leaf path). The
// two primitives below cost O(height) node copies; no entry is inserted,
// deleted or copied one at a time.

// splitAt cuts the tree along the root-to-leaf path of key: t keeps the
// entries below key and the returned tree takes the rest. The leaf chain is cut
// at the seam, and the right piece is counted by walking its leaves.
func (t *Tree) splitAt(key schema.Key) *Tree {
	l, r := cut(t.root, key)
	t.root = collapse(l)
	right := &Tree{root: collapse(r)}
	edge(t.root, true).next = nil
	for n := edge(right.root, false); n != nil; n = n.next {
		right.size += n.count()
	}
	t.size -= right.size
	return right
}

// cut divides the sub-tree under n at key. Each node on the path keeps what
// lies left of it and a new sibling takes the rest; a side that would hold no
// node is nil, and a node that falls entirely on one side is handed over as is.
func cut(n *node, key schema.Key) (l, r *node) {
	if n.leaf {
		i := n.search(key, 0, 0)
		if i == 0 {
			return nil, n
		}
		if i == n.count() {
			return n, nil
		}
		r = &node{leaf: true, next: n.next}
		n.moveTail(i, r, 0)
		return n, r
	}
	i := childIndex(n.keys, key, 0, 0)
	cl, cr := cut(n.children[i], key)
	// n keeps children[:keep], the sibling takes children[from:]; the child on
	// the path counts for a side only if the cut left it something there.
	keep, from := i+1, i
	if cl == nil {
		keep = i
	}
	if cr == nil {
		from = i + 1
	}
	if keep == 0 {
		return nil, n
	}
	if from == len(n.children) {
		return n, nil
	}
	r = &node{
		keys:     append([]schema.Key(nil), n.keys[from:]...),
		children: append([]*node(nil), n.children[from:]...),
	}
	if cr != nil {
		r.children[0] = cr
	}
	clear(n.children[keep:])
	n.keys, n.children = n.keys[:keep-1], n.children[:keep]
	return n, r
}

// collapse makes one side of a cut, or a join's result, a root: a missing side
// is an empty leaf, a single-child root hands its child up, and a root whose
// internal children's children fit in one node is replaced by that node. A
// sub-tree that shrank thus sits no higher than its leaves need, however tall
// it once grew. Leaves are left as they are: the seam coalescing in join is
// what keeps their count down.
func collapse(n *node) *node {
	if n == nil {
		return &node{leaf: true}
	}
	for !n.leaf {
		if len(n.children) == 1 {
			n = n.children[0]
			continue
		}
		if n.children[0].leaf {
			return n
		}
		grand := 0
		for _, c := range n.children {
			if grand += len(c.children); grand > maxKeys()+1 {
				return n
			}
		}
		m := &node{keys: make([]schema.Key, 0, grand-1), children: make([]*node, 0, grand)}
		for i, c := range n.children {
			if i > 0 {
				m.keys = append(m.keys, n.keys[i-1])
			}
			m.keys = append(m.keys, c.keys...)
			m.children = append(m.children, c.children...)
		}
		n = m
	}
	return n
}

// join appends right, whose keys must all be greater than t's, to t; right
// must not be used afterwards. The shorter tree hangs off the taller one's
// spine at its own height, and the seam is coalesced bottom-up: the boundary
// leaves and then their ancestors merge into one node whenever the two fit, and
// a root left with a level more than its leaves need is lowered (collapse).
func (t *Tree) join(right *Tree) {
	if right.size == 0 {
		return
	}
	if t.size == 0 {
		*t = *right
		return
	}
	t.size += right.size
	lp, rp := spine(t.root, true), spine(right.root, false)
	hl, hr := len(lp)-1, len(rp)-1
	h := min(hl, hr)

	l, r := lp[hl], rp[hr]
	var sep schema.Key // bounds l from r while the two stay apart
	merged := l.count()+r.count() <= maxKeys()
	if merged {
		l.appendLeaf(r)
		l.next = r.next
	} else {
		l.next, sep = r, r.key(0)
	}
	for j := 1; j <= h; j++ {
		l, r = lp[hl-j], rp[hr-j]
		if merged { // r's first child went into l's last one
			if len(r.keys) > 0 {
				sep, r.keys = r.keys[0], r.keys[1:]
			}
			r.children = r.children[1:]
		}
		merged = len(l.children)+len(r.children) <= maxKeys()+1
		if merged && len(r.children) > 0 {
			l.keys = append(append(l.keys, sep), r.keys...)
			l.children = append(l.children, r.children...)
		}
	}

	// l and r are now the two nodes at the shorter tree's root height.
	switch {
	case hl == hr:
		if !merged {
			t.root = &node{keys: []schema.Key{sep}, children: []*node{l, r}}
		}
	case hl > hr:
		if !merged {
			p := lp[hl-h-1]
			p.keys = append(p.keys, sep)
			p.children = append(p.children, r)
			t.root = splitOverfull(lp[:hl-h], true)
		}
	default:
		p := rp[hr-h-1]
		if merged {
			p.children[0] = l
		} else {
			p.keys = slices.Insert(p.keys, 0, sep)
			p.children = slices.Insert(p.children, 0, l)
		}
		t.root = splitOverfull(rp[:hr-h], false)
	}
	t.root = collapse(t.root)
}

// splitOverfull splits, bottom-up, the nodes of a spine that attaching a child
// at its lower end left with more than maxKeys keys, and returns the root.
func splitOverfull(path []*node, last bool) *node {
	for d := len(path) - 1; d >= 0 && len(path[d].keys) > maxKeys(); d-- {
		if d == 0 {
			root := &node{children: []*node{path[0]}}
			splitChild(root, 0)
			return root
		}
		i := 0
		if last {
			i = len(path[d-1].children) - 1
		}
		splitChild(path[d-1], i)
	}
	return path[0]
}

// spine returns the nodes from n down to its first leaf or, with last set,
// its last one.
func spine(n *node, last bool) []*node {
	path := []*node{n}
	for !n.leaf {
		i := 0
		if last {
			i = len(n.children) - 1
		}
		n = n.children[i]
		path = append(path, n)
	}
	return path
}

// edge returns the first leaf under n or, with last set, the last one: the
// end of spine without building the path.
func edge(n *node, last bool) *node {
	for !n.leaf {
		i := 0
		if last {
			i = len(n.children) - 1
		}
		n = n.children[i]
	}
	return n
}
