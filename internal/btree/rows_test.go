package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atrapos/internal/schema"
)

// nodeKeys returns n's keys: an internal node's separators, or a leaf's keys
// decoded.
func nodeKeys(n *node) []schema.Key {
	if !n.leaf {
		return n.keys
	}
	keys := make([]schema.Key, n.count())
	for i := range keys {
		keys[i] = n.key(i)
	}
	return keys
}

// checkLeaf holds leaf n to the slotted-page invariants: one end per key, ends
// that do not descend, the last of them at the end of the row bytes, and every
// row handed out capped, so appending to it cannot overwrite its neighbour. It
// holds the packing to its own: whole entries at a shift of 0 to 3 (the ends'
// at most 2), and every key at or above the base (one below would be an offset
// that wrapped). With narrow set it requires what a load, split or cut leaves:
// the base at the first key and each array at the narrowest width that holds
// it.
func checkLeaf(n *node, narrow bool) error {
	if n.keyShift > 3 || n.endShift > 2 || len(n.offs)%(1<<n.keyShift) != 0 || len(n.ends)%(1<<n.endShift) != 0 {
		return fmt.Errorf("%d B of keys packed at shift %d, %d B of ends at %d", len(n.offs), n.keyShift, len(n.ends), n.endShift)
	}
	c := n.count()
	if n.ends.len(n.endShift) != c {
		return fmt.Errorf("leaf with %d keys and %d ends", c, n.ends.len(n.endShift))
	}
	end := 0
	for i := 0; i < c; i++ {
		if k := n.key(i); k < n.base {
			return fmt.Errorf("key %d below the base %d", k, n.base)
		}
		e := n.end(i)
		if e < end {
			return fmt.Errorf("end %d descends: %d after %d", i, e, end)
		}
		end = e
		if r := n.row(i); cap(r) != len(r) {
			return fmt.Errorf("row %d handed out with cap %d, len %d", i, cap(r), len(r))
		}
	}
	if end != len(n.rows) {
		return fmt.Errorf("ends stop at byte %d of %d", end, len(n.rows))
	}
	if !narrow || c == 0 {
		return nil
	}
	if n.base != n.key(0) {
		return fmt.Errorf("base %d below the first key %d", n.base, n.key(0))
	}
	if s, want := n.keyShift, shiftFor(uint64(n.key(c-1)-n.key(0))); s != want {
		return fmt.Errorf("keys spanning %d packed at shift %d, narrowest %d", n.key(c-1)-n.key(0), s, want)
	}
	if s, want := n.endShift, shiftFor(uint64(len(n.rows))); s != want {
		return fmt.Errorf("ends of %d row bytes packed at shift %d, narrowest %d", len(n.rows), s, want)
	}
	return nil
}

// leafCounts maps every leaf of m to its entry count.
func leafCounts(m *MultiRooted) map[*node]int {
	counts := map[*node]int{}
	for _, tr := range m.roots {
		for n := edge(tr.root, false); n != nil; n = n.next {
			counts[n] = n.count()
		}
	}
	return counts
}

// leafStrides are the key spacings FuzzLeafRows's first byte picks from: dense,
// spans of 255·257 = 2^16-1 and 256·256 = 2^16, 255·16843009 = 2^32-1 and
// 256·2^24 = 2^32 between key indexes 0 and 255 or 256, and sparse keys that
// pack at 8 bytes.
var leafStrides = [...]uint64{1, 257, 256, 16843009, 1 << 24, 1 << 40}

// FuzzLeafRows drives a multi-rooted tree with a byte-coded stream of inserts
// and runs of inserts, deletes and runs of deletes, same-length and
// length-changing updates (in place, with a fresh row, a prefix of the stored
// row and an append to it), splits, merges, re-boundings and fresh bulk loads
// of rows of 0 to 200 bytes (64 times that for a rare big insert), and after
// every step holds it to a map: same contents, every row capped, and checkTree
// (the leaf invariants of checkLeaf included) on every sub-tree. A leaf the
// step created, or one it cut without deleting from, must be packed at its
// narrowest: a load, split or cut leaves it so, and inserts keep it so. The
// first byte spaces the key indexes 0 … 461 (a run's last) by a leafStrides
// entry, from 0 up or, with its top bit set, up to 2^64-2 (a Scan's end and
// checkTree's fences exclude 2^64-1).
func FuzzLeafRows(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 161)
		rand.New(rand.NewSource(seed)).Read(ops[1:])
		f.Add(ops)
	}
	// Each step below is op, key index (2 bytes), size. Op 0 inserts, 8|0 a
	// run of size%64 keys, 0x78 a run of size%16 big rows; 2 deletes; 5
	// splits; 7 loads.
	f.Add([]byte{0, // dense: key spans 255, then 256, with a load and a cut between
		0, 0, 0, 10, 0, 0, 255, 10, 7, 0, 0, 0, 0, 1, 0, 10, 7, 0, 0, 0, 5, 1, 0, 0})
	f.Add([]byte{1, // spans 2^16-1 (indexes 0, 255 at stride 257), then past it
		0, 0, 0, 10, 0, 0, 255, 10, 7, 0, 0, 0, 0, 1, 0, 10, 5, 1, 0, 0})
	f.Add([]byte{2, // span 2^16 (indexes 0, 256 at stride 256), loaded and cut
		0, 0, 0, 10, 0, 1, 0, 10, 7, 0, 0, 0, 0, 0, 255, 10, 5, 1, 0, 0})
	f.Add([]byte{3, // span 2^32-1
		0, 0, 0, 10, 0, 0, 255, 10, 7, 0, 0, 0, 0, 1, 0, 10, 5, 0, 255, 0})
	f.Add([]byte{4, // span 2^32
		0, 0, 0, 10, 0, 1, 0, 10, 7, 0, 0, 0, 5, 1, 0, 0})
	f.Add([]byte{0x80 | 5, // sparse keys up to 2^64-2, a run into the top one
		8, 1, 143, 63, 0, 0, 0, 10, 7, 0, 0, 0, 5, 1, 200, 0, 2, 1, 200, 0})
	f.Add([]byte{0x80, // dense keys up to 2^64-2, a run into the top one
		8, 1, 143, 63, 8, 1, 124, 30, 7, 0, 0, 0, 5, 1, 139, 0})
	f.Add([]byte{0, // inserts below the base: a run from 100, then 90, 50 and 0
		8, 0, 100, 20, 0, 0, 90, 10, 0, 0, 50, 10, 0, 0, 0, 10, 2, 0, 0, 0, 0, 0, 1, 10})
	f.Add([]byte{0, // row bytes past 255, then past 65,535, a load and a cut between
		8, 0, 0, 30, 0x78, 0, 100, 140, 7, 0, 0, 200, 5, 0, 105, 0, 2, 0, 100, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// maxSteps bounds an input's work: every step checks the whole tree.
		const keySpace, keyIndexes, maxSteps = 400, 400 + 63, 64
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		spacing := next()
		stride := leafStrides[spacing&0x7f%len(leafStrides)]
		keyAt := func(i int) schema.Key { // ascending over 0 … keyIndexes-1
			if spacing&0x80 != 0 {
				return ^schema.Key(0) - schema.Key(uint64(keyIndexes-1-i)*stride)
			}
			return schema.Key(uint64(i) * stride)
		}
		m, _ := NewMultiRooted([]schema.Key{0})
		ref := map[schema.Key][]byte{}
		fill := func(n, step int, big bool) []byte {
			n %= 201
			if big {
				n *= 64
			}
			r := make([]byte, n)
			for j := range r {
				r[j] = byte(step + j)
			}
			return r
		}
		for step := 0; len(ops) > 0 && step < maxSteps; step++ {
			before := leafCounts(m)
			op := next()
			ki := (next()<<8 | next()) % keySpace
			k := keyAt(ki)
			size := next()
			fresh := fill(size, step, false)
			var desc string
			switch op % 8 {
			case 0, 1: // one insert, or a run of up to 63 keys (15 of big rows)
				run, big := 1, op&0x70 == 0x70
				switch {
				case op&8 != 0 && big:
					run = size % 16
				case op&8 != 0:
					run = size % 64
				}
				desc = fmt.Sprintf("Insert(%d…+%d, %d B, big %v)", k, run, len(fresh), big)
				for j := 0; j < run; j++ {
					kj, r := keyAt(ki+j), fill(size+7*j, step+j, big)
					_, had := ref[kj]
					if m.Insert(kj, r) == had {
						t.Fatalf("step %d %s: key %d reported %v with the key present %v", step, desc, kj, !had, had)
					}
					if !had {
						ref[kj] = slices.Clone(r)
					}
				}
			case 2: // one delete, or a run of up to 63 keys
				run := 1
				if op&8 != 0 {
					run = size % 64
				}
				desc = fmt.Sprintf("Delete(%d…+%d)", k, run)
				for j := 0; j < run; j++ {
					kj := keyAt(ki + j)
					_, had := ref[kj]
					if m.Delete(kj) != had {
						t.Fatalf("step %d %s: key %d found %v, want %v", step, desc, kj, !had, had)
					}
					delete(ref, kj)
				}
			case 3: // same length: in place, or a fresh row of the stored length
				desc = fmt.Sprintf("Update(%d) same length", k)
				want := slices.Clone(ref[k])
				for j := range want {
					want[j]++
				}
				m.Update(k, func(r []byte) []byte {
					if op&8 == 0 {
						for j := range r {
							r[j]++
						}
						return r
					}
					return slices.Clone(want)
				})
				if _, had := ref[k]; had {
					ref[k] = want
				}
			case 4: // length-changing: a fresh row, a prefix, or an append
				desc = fmt.Sprintf("Update(%d) to %d B, kind %d", k, len(fresh), op/8%3)
				var want []byte
				m.Update(k, func(r []byte) []byte {
					switch op / 8 % 3 {
					case 0:
						want = slices.Clone(fresh)
						return fresh
					case 1:
						r = r[:min(len(fresh), len(r))]
						want = slices.Clone(r)
						return r
					default:
						r = append(r, fresh...)
						want = slices.Clone(r)
						return r
					}
				})
				if _, had := ref[k]; had {
					ref[k] = want
				}
			case 5:
				if op&8 == 0 {
					desc = fmt.Sprintf("Split(%d)", k)
					m.Split(k)
				} else {
					i := ki % (m.NumPartitions() + 1)
					desc = fmt.Sprintf("Merge(%d)", i)
					m.Merge(i)
				}
			case 6:
				nb := []schema.Key{0}
				for i := 0; i < size%6; i++ {
					nb = append(nb, keyAt((next()<<8|next())%keySpace))
				}
				slices.Sort(nb)
				nb = slices.Compact(nb)
				desc = fmt.Sprintf("Repartition(%v)", nb)
				if _, err := m.Repartition(nb); err != nil {
					t.Fatalf("step %d %s: %v", step, desc, err)
				}
			default: // a fresh load of the contents, size%70+1 rows to a slab
				bounds := UniformBounds(keySpace, 1+ki%5)
				for i := 1; i < len(bounds); i++ {
					bounds[i] = keyAt(int(bounds[i]))
				}
				per := 1 + size%70
				desc = fmt.Sprintf("Load under %v, %d rows a slab", bounds, per)
				keys := make([]schema.Key, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				rows := make([][]byte, len(keys))
				for i, k := range keys {
					rows[i] = slices.Clone(ref[k])
				}
				lens, slabs := packRows(rows, per)
				m, _ = NewMultiRooted(bounds)
				if err := m.Load(keys, lens, slabs); err != nil {
					t.Fatalf("step %d %s: %v", step, desc, err)
				}
			}
			where := fmt.Sprintf("step %d %s", step, desc)
			if m.Len() != len(ref) {
				t.Fatalf("%s: %d entries, reference %d", where, m.Len(), len(ref))
			}
			seen := 0
			m.Scan(0, ^schema.Key(0), func(k schema.Key, r []byte) bool {
				if want, ok := ref[k]; !ok || string(r) != string(want) {
					t.Fatalf("%s: key %d holds %d B %x, reference %d B (present %v)", where, k, len(r), r, len(want), ok)
				}
				if cap(r) != len(r) {
					t.Fatalf("%s: key %d's row has cap %d, len %d", where, k, cap(r), len(r))
				}
				seen++
				return true
			})
			if seen != len(ref) {
				t.Fatalf("%s: scan visited %d of %d entries", where, seen, len(ref))
			}
			checkMultiRooted(t, m)
			for n, c := range leafCounts(m) {
				if was, ok := before[n]; !ok || (c < was && op%8 != 2) {
					if err := checkLeaf(n, true); err != nil {
						t.Fatalf("%s: a leaf it made or cut: %v", where, err)
					}
				}
			}
		}
	})
}

// TestShiftFor pins the narrowest widths at their edges, where a width one
// step too narrow would truncate the largest value it is chosen for, and reads
// each edge back through a packed array.
func TestShiftFor(t *testing.T) {
	for _, tc := range []struct {
		v     uint64
		shift uint8
	}{{0, 0}, {1<<8 - 1, 0}, {1 << 8, 1}, {1<<16 - 1, 1}, {1 << 16, 2}, {1<<32 - 1, 2}, {1 << 32, 3}, {^uint64(0), 3}} {
		if got := shiftFor(tc.v); got != tc.shift {
			t.Errorf("shiftFor(%d) = %d, want %d", tc.v, got, tc.shift)
		}
		s := shiftFor(tc.v)
		p := newPacked(s, 2).insert(s, 0, tc.v).insert(s, 0, 0)
		if p.len(s) != 2 || p.at(s, 0) != 0 || p.at(s, 1) != tc.v {
			t.Errorf("packed at shift %d reads back %d entries, %d then %d; want 0 then %d", s, p.len(s), p.at(s, 0), p.at(s, 1), tc.v)
		}
	}
}
