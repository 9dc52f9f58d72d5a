package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atrapos/internal/schema"
)

// checkLeaf holds leaf n to the slotted-page invariants: one end per key, ends
// that do not descend, the last of them at the end of the row bytes, and every
// row handed out capped, so appending to it cannot overwrite its neighbour.
func checkLeaf(n *node) error {
	if len(n.ends) != len(n.keys) {
		return fmt.Errorf("leaf with %d keys and %d ends", len(n.keys), len(n.ends))
	}
	var end uint32
	for i, e := range n.ends {
		if e < end {
			return fmt.Errorf("end %d descends: %v", i, n.ends)
		}
		end = e
		if r := n.row(i); cap(r) != len(r) {
			return fmt.Errorf("row %d handed out with cap %d, len %d", i, cap(r), len(r))
		}
	}
	if int(end) != len(n.rows) {
		return fmt.Errorf("ends stop at byte %d of %d", end, len(n.rows))
	}
	return nil
}

// FuzzLeafRows drives a multi-rooted tree with a byte-coded stream of inserts
// and runs of inserts, deletes and runs of deletes, same-length and
// length-changing updates (in place, with a fresh row, a prefix of the stored
// row and an append to it), splits, merges, re-boundings and fresh bulk loads
// of rows of 0 to 200 bytes, and after every step holds it to a map: same
// contents, every row capped, and checkTree (the leaf invariants of checkLeaf
// included) on every sub-tree.
func FuzzLeafRows(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		// maxSteps bounds an input's work: every step checks the whole tree.
		const keySpace, maxSteps = 400, 64
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		m, _ := NewMultiRooted([]schema.Key{0})
		ref := map[schema.Key][]byte{}
		fill := func(n, step int) []byte {
			r := make([]byte, n%201)
			for j := range r {
				r[j] = byte(step + j)
			}
			return r
		}
		for step := 0; len(ops) > 0 && step < maxSteps; step++ {
			op := next()
			k := schema.Key((next()<<8 | next()) % keySpace)
			size := next()
			fresh := fill(size, step)
			var desc string
			switch op % 8 {
			case 0, 1: // one insert, or a run of up to 63 keys
				run := 1
				if op&8 != 0 {
					run = size % 64
				}
				desc = fmt.Sprintf("Insert(%d…+%d, %d B)", k, run, len(fresh))
				for j := 0; j < run; j++ {
					kj, r := k+schema.Key(j), fill(size+7*j, step+j)
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
					kj := k + schema.Key(j)
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
					i := int(k) % (m.NumPartitions() + 1)
					desc = fmt.Sprintf("Merge(%d)", i)
					m.Merge(i)
				}
			case 6:
				nb := []schema.Key{0}
				for i := 0; i < size%6; i++ {
					nb = append(nb, schema.Key((next()<<8|next())%keySpace))
				}
				slices.Sort(nb)
				nb = slices.Compact(nb)
				desc = fmt.Sprintf("Repartition(%v)", nb)
				if _, err := m.Repartition(nb); err != nil {
					t.Fatalf("step %d %s: %v", step, desc, err)
				}
			default: // a fresh load of the contents, size%70+1 rows to a slab
				bounds := UniformBounds(keySpace, 1+int(k)%5)
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
		}
	})
}
