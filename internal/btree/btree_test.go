package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"atrapos/internal/schema"
)

// row is the 8-byte row a test stores under a key: v, little-endian.
func row(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// val is the value row stored.
func val(r []byte) int64 { return int64(binary.LittleEndian.Uint64(r)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(schema.KeyFromInt(1)); ok {
		t.Error("Get on empty tree should miss")
	}
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty tree should report absence")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty tree should report absence")
	}
	if tr.Delete(schema.KeyFromInt(1)) {
		t.Error("Delete on empty tree should report absence")
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		if !tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i*10))) {
			t.Fatalf("Insert(%d) reported update", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(schema.KeyFromInt(int64(i)))
		if !ok {
			t.Fatalf("Get(%d) missed", i)
		}
		if val(v) != int64(i*10) {
			t.Fatalf("Get(%d) = %v", i, v)
		}
	}
	if _, ok := tr.Get(schema.KeyFromInt(n + 5)); ok {
		t.Error("Get of absent key should miss")
	}
}

func TestInsertRandomAndDuplicate(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(3000)
	for _, k := range keys {
		tr.Insert(schema.KeyFromInt(int64(k)), row(int64(k)))
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d, want 3000", tr.Len())
	}
	// A duplicate insert changes neither the size nor the row.
	if tr.Insert(schema.KeyFromInt(42), row(999)) {
		t.Error("a duplicate insert reported an insert")
	}
	if tr.Len() != 3000 {
		t.Errorf("Len changed on a duplicate insert: %d", tr.Len())
	}
	v, _ := tr.Get(schema.KeyFromInt(42))
	if val(v) != 42 {
		t.Errorf("row after a duplicate insert = %v, want 42", v)
	}
}

// TestInsertInRejectsDuplicates inserts keys of a multi-rooted tree a second
// time, through InsertIn's fenced descent, after the first pass has filled
// and split its nodes: each duplicate must report no insert and leave the row
// and the structure as they were, full nodes unsplit.
func TestInsertInRejectsDuplicates(t *testing.T) {
	m, _ := NewMultiRooted(UniformBounds(20000, 5))
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(20000)
	for _, k := range keys {
		if !m.InsertIn(m.PartitionFor(schema.Key(k)), schema.Key(k), row(int64(k))) {
			t.Fatalf("first insert of %d reported a duplicate", k)
		}
	}
	leaves, height := checkMultiRooted(t, m)
	for _, k := range keys[:5000] {
		if m.InsertIn(m.PartitionFor(schema.Key(k)), schema.Key(k), row(-1)) {
			t.Fatalf("duplicate insert of %d reported an insert", k)
		}
	}
	if l, h := checkMultiRooted(t, m); l != leaves || h != height {
		t.Fatalf("duplicate inserts reshaped the tree: %d leaves, height %d; was %d, %d", l, h, leaves, height)
	}
	if m.Len() != 20000 {
		t.Fatalf("Len = %d after duplicate inserts, want 20000", m.Len())
	}
	_, vals := scanAll(m.Scan)
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("row %d = %d after duplicate inserts", i, v)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	for _, k := range []int64{500, 3, 999, 250} {
		tr.Insert(schema.KeyFromInt(k), row(k))
	}
	min, _ := tr.Min()
	max, _ := tr.Max()
	if min != schema.KeyFromInt(3) || max != schema.KeyFromInt(999) {
		t.Errorf("Min/Max = %d/%d", min.Int(), max.Int())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(schema.KeyFromInt(int64(i))) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(schema.KeyFromInt(int64(i)))
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("key %d lost", i)
		}
	}
	if tr.Delete(schema.KeyFromInt(0)) {
		t.Error("double delete should report absence")
	}
}

func TestUpdate(t *testing.T) {
	tr := New()
	tr.Insert(schema.KeyFromInt(7), row(1))
	ok := tr.Update(schema.KeyFromInt(7), func(r []byte) []byte {
		return row(val(r) + 100)
	})
	if !ok {
		t.Fatal("Update missed existing key")
	}
	v, _ := tr.Get(schema.KeyFromInt(7))
	if val(v) != 101 {
		t.Errorf("updated value = %v", v)
	}
	if tr.Update(schema.KeyFromInt(8), func(r []byte) []byte { return r }) {
		t.Error("Update of absent key should report absence")
	}
}

func TestScanAndAscend(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
	var got []int64
	tr.Scan(schema.KeyFromInt(100), schema.KeyFromInt(200), func(k schema.Key, v []byte) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 100 {
		t.Fatalf("scan returned %d keys, want 100", len(got))
	}
	for i, k := range got {
		if k != int64(100+i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	// Early stop.
	count := 0
	tr.Scan(0, ^schema.Key(0), func(schema.Key, []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-stop scan visited %d", count)
	}
	// Ascend covers everything.
	count = 0
	tr.Ascend(func(schema.Key, []byte) bool { count++; return true })
	if count != 1000 {
		t.Errorf("Ascend visited %d, want 1000", count)
	}
}

// TestLargestKeyIsAnEntry: a row stored under ^schema.Key(0), the largest
// key, is found, kept against a duplicate insert, visited by Ascend and
// deleted like any other, in a one-leaf tree, a multi-level one and the last
// partition of a multi-rooted one.
func TestLargestKeyIsAnEntry(t *testing.T) {
	top := ^schema.Key(0)
	for _, n := range []int{0, 1, 5000} {
		tr := New()
		m, _ := NewMultiRooted(UniformBounds(int64(n)+1, 4))
		for i := 0; i < n; i++ {
			tr.Insert(schema.Key(i), row(int64(i)))
			m.Insert(schema.Key(i), row(int64(i)))
		}
		if !tr.Insert(top, row(-1)) || tr.Insert(top, row(-2)) || !m.Insert(top, row(-2)) {
			t.Fatalf("%d rows: inserting the largest key twice did not insert, then refuse", n)
		}
		if v, ok := tr.Get(top); !ok || val(v) != -1 || tr.Len() != n+1 {
			t.Fatalf("%d rows: Get(top) = %v, %v; Len %d", n, v, ok, tr.Len())
		}
		if v, ok := m.Get(top); !ok || val(v) != -2 || m.PartitionFor(top) != m.NumPartitions()-1 {
			t.Fatalf("%d rows: multi-rooted Get(top) = %v, %v in partition %d", n, v, ok, m.PartitionFor(top))
		}
		var last schema.Key
		count := 0
		tr.Ascend(func(k schema.Key, _ []byte) bool { last, count = k, count+1; return true })
		if count != n+1 || last != top {
			t.Fatalf("%d rows: Ascend visited %d entries ending at %d, want %d ending at the largest key", n, count, last, n+1)
		}
		if !tr.Delete(top) || tr.Delete(top) || !m.Delete(top) {
			t.Fatalf("%d rows: deleting the largest key twice did not find it once", n)
		}
		if _, ok := tr.Get(top); ok || tr.Len() != n {
			t.Fatalf("%d rows: the largest key survived its delete", n)
		}
	}
}

func TestTreeMatchesMapProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		tr := New()
		ref := make(map[schema.Key]int64)
		for _, op := range ops {
			k := schema.KeyFromInt(int64(op % 64))
			switch {
			case op%3 == 0:
				_, had := ref[k]
				if tr.Insert(k, row(int64(op))) == had {
					return false
				}
				if !had {
					ref[k] = int64(op)
				}
			case op%3 == 1:
				delete(ref, k)
				tr.Delete(k)
			default:
				v, ok := tr.Get(k)
				rv, rok := ref[k]
				if ok != rok {
					return false
				}
				if ok && val(v) != rv {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, rv := range ref {
			v, ok := tr.Get(k)
			if !ok || val(v) != rv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAscendIsSortedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		tr := New()
		for _, r := range raw {
			tr.Insert(schema.Key(r), row(int64(r)))
		}
		var keys []schema.Key
		tr.Ascend(func(k schema.Key, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiRootedValidation(t *testing.T) {
	if _, err := NewMultiRooted(nil); err == nil {
		t.Error("empty bounds should error")
	}
	if _, err := NewMultiRooted([]schema.Key{5}); err == nil {
		t.Error("first bound must be zero")
	}
	if _, err := NewMultiRooted([]schema.Key{0, 10, 10}); err == nil {
		t.Error("non-ascending bounds should error")
	}
	m, err := NewMultiRooted([]schema.Key{0, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPartitions() != 3 {
		t.Errorf("NumPartitions = %d", m.NumPartitions())
	}
}

func TestUniformBounds(t *testing.T) {
	b := UniformBounds(800, 4)
	if len(b) != 4 || b[0] != 0 {
		t.Fatalf("UniformBounds = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending: %v", b)
		}
	}
	if got := UniformBounds(100, 0); len(got) != 1 {
		t.Errorf("n=0 should clamp to one partition, got %v", got)
	}
	if _, err := NewMultiRooted(UniformBounds(1000000, 80)); err != nil {
		t.Errorf("80-way uniform bounds rejected: %v", err)
	}
}

func TestMultiRootedRouting(t *testing.T) {
	m, err := NewMultiRooted(UniformBounds(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d", m.Len())
	}
	sizes := m.PartitionSizes()
	if len(sizes) != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i, s := range sizes {
		if s != 250 {
			t.Errorf("partition %d has %d entries, want 250", i, s)
		}
	}
	// Keys route to the right partitions.
	if m.PartitionFor(schema.KeyFromInt(0)) != 0 {
		t.Error("key 0 should be in partition 0")
	}
	if m.PartitionFor(schema.KeyFromInt(999)) != 3 {
		t.Error("key 999 should be in partition 3")
	}
	v, ok := m.Get(schema.KeyFromInt(640))
	if !ok || val(v) != 640 {
		t.Errorf("Get(640) = %v %v", v, ok)
	}
	if !m.Update(schema.KeyFromInt(640), func(r []byte) []byte { return row(1) }) {
		t.Error("Update missed")
	}
	if !m.Delete(schema.KeyFromInt(640)) {
		t.Error("Delete missed")
	}
	if _, ok := m.Get(schema.KeyFromInt(640)); ok {
		t.Error("deleted key still present")
	}
	if _, err := m.Partition(0); err != nil {
		t.Error(err)
	}
	if _, err := m.Partition(9); err == nil {
		t.Error("out of range partition should error")
	}
}

func TestMultiRootedScanAcrossPartitions(t *testing.T) {
	m, _ := NewMultiRooted(UniformBounds(100, 4))
	for i := int64(0); i < 100; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	var got []int64
	m.Scan(schema.KeyFromInt(20), schema.KeyFromInt(80), func(k schema.Key, _ []byte) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 60 {
		t.Fatalf("cross-partition scan returned %d keys, want 60", len(got))
	}
	for i, k := range got {
		if k != int64(20+i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	// Early stop across partitions.
	count := 0
	m.Scan(0, ^schema.Key(0), func(schema.Key, []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestMultiRootedSplitAndMerge(t *testing.T) {
	m, _ := NewMultiRooted([]schema.Key{0})
	for i := int64(0); i < 100; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	newIdx, err := m.Split(schema.KeyFromInt(50))
	if err != nil {
		t.Fatal(err)
	}
	if newIdx != 1 || m.NumPartitions() != 2 {
		t.Fatalf("split produced partition %d of %d", newIdx, m.NumPartitions())
	}
	sizes := m.PartitionSizes()
	if sizes[0] != 50 || sizes[1] != 50 {
		t.Errorf("sizes after split = %v", sizes)
	}
	// All keys still reachable.
	for i := int64(0); i < 100; i++ {
		if _, ok := m.Get(schema.KeyFromInt(i)); !ok {
			t.Fatalf("key %d lost after split", i)
		}
	}
	// Splitting at an existing bound fails.
	if _, err := m.Split(schema.KeyFromInt(50)); err == nil {
		t.Error("split at existing bound should error")
	}
	// Merge back.
	if err := m.Merge(0); err != nil {
		t.Fatal(err)
	}
	if m.NumPartitions() != 1 || m.Len() != 100 {
		t.Errorf("after merge: %d partitions, %d entries", m.NumPartitions(), m.Len())
	}
	if err := m.Merge(0); err == nil {
		t.Error("merging the last partition should error")
	}
	if err := m.Merge(-1); err == nil {
		t.Error("negative partition index should error")
	}
}

func TestMultiRootedRepartition(t *testing.T) {
	m, _ := NewMultiRooted(UniformBounds(1000, 8))
	for i := int64(0); i < 1000; i++ {
		m.Insert(schema.KeyFromInt(i), row(i))
	}
	if _, err := m.Repartition(nil); err == nil {
		t.Error("empty bounds should error")
	}
	if _, err := m.Repartition([]schema.Key{0, 5, 5}); err == nil {
		t.Error("non-ascending bounds should error")
	}
	_, err := m.Repartition(UniformBounds(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPartitions() != 5 {
		t.Fatalf("NumPartitions = %d, want 5", m.NumPartitions())
	}
	if m.Len() != 1000 {
		t.Fatalf("entries lost during repartition: %d", m.Len())
	}
	for i := int64(0); i < 1000; i += 97 {
		if _, ok := m.Get(schema.KeyFromInt(i)); !ok {
			t.Errorf("key %d lost", i)
		}
	}
	sizes := m.PartitionSizes()
	for i, s := range sizes {
		if s != 200 {
			t.Errorf("partition %d has %d entries, want 200", i, s)
		}
	}
}

func TestMultiRootedSplitPreservesBalanceProperty(t *testing.T) {
	prop := func(splitAtRaw uint16) bool {
		at := int64(splitAtRaw%998) + 1 // 1..998
		m, _ := NewMultiRooted([]schema.Key{0})
		for i := int64(0); i < 1000; i++ {
			m.Insert(schema.KeyFromInt(i), row(i))
		}
		if _, err := m.Split(schema.KeyFromInt(at)); err != nil {
			return false
		}
		sizes := m.PartitionSizes()
		return sizes[0] == int(at) && sizes[1] == int(1000-at) && m.Len() == 1000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(schema.KeyFromInt(int64(i)), row(int64(i)))
	}
}

// BenchmarkTreeGet probes bulk-loaded tables, full leaves as the engine's
// tables have them, at uniformly random keys drawn up front: the storage
// layer's point reads, where each level of a descent is a cache miss. The
// single-partition cases probe the sub-tree (Tree.Get), the partitioned one the
// multi-rooted tree (partition resolution, then a descent within its fences).
func BenchmarkTreeGet(b *testing.B) {
	cases := []struct {
		name  string
		rows  int
		step  int64
		parts int
	}{
		{"dense-100K", 100_000, 1, 1},
		{"dense-1M", 1_000_000, 1, 1},
		{"stride96-400K", 400_000, 96, 1},
		{"dense-1M-32parts", 1_000_000, 1, 32},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			keys, vals := ascending(tc.rows, tc.step)
			rng := rand.New(rand.NewSource(1))
			probes := make([]schema.Key, 1<<16)
			for i := range probes {
				probes[i] = keys[rng.Intn(len(keys))]
			}
			m, _ := NewMultiRooted(UniformBounds(int64(tc.rows)*tc.step, tc.parts))
			if err := m.Load(keys, vals); err != nil {
				b.Fatal(err)
			}
			get := m.Get
			if tc.parts == 1 {
				get = m.roots[0].Get
			}
			if allocs := testing.AllocsPerRun(100, func() { get(probes[0]) }); allocs != 0 {
				b.Fatalf("Get allocates %.1f times, want 0", allocs)
			}
			runtime.GC() // no mark phase of the load's garbage runs beside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := get(probes[i%len(probes)]); !ok {
					b.Fatalf("Get(%d) missed", probes[i%len(probes)])
				}
			}
		})
	}
}

// refMultiRooted is the row-by-row repartitioning this package used before
// sub-trees were cut and joined: Split scans the moved rows into a fresh tree
// and deletes them one by one, Merge re-inserts the right tree, Repartition
// re-inserts every row into fresh trees. It survives as the reference model:
// the per-row "moved" rule in its Repartition is the definition the per-piece
// count in MultiRooted.Repartition must reproduce.
type refMultiRooted struct{ MultiRooted }

func (m *refMultiRooted) Split(at schema.Key) (int, error) {
	idx := m.PartitionFor(at)
	if m.bounds[idx] == at {
		return 0, fmt.Errorf("btree: partition already starts at key %d", at)
	}
	old, right := m.roots[idx], New()
	old.Scan(at, ^schema.Key(0), func(k schema.Key, v []byte) bool {
		right.Insert(k, v)
		return true
	})
	right.Ascend(func(k schema.Key, _ []byte) bool {
		old.Delete(k)
		return true
	})
	newIdx := idx + 1
	m.bounds = slices.Insert(m.bounds, newIdx, at)
	m.roots = slices.Insert(m.roots, newIdx, right)
	return newIdx, nil
}

func (m *refMultiRooted) Merge(i int) error {
	if i < 0 || i+1 >= len(m.roots) {
		return fmt.Errorf("btree: cannot merge partition %d of %d", i, len(m.roots))
	}
	left, right := m.roots[i], m.roots[i+1]
	right.Ascend(func(k schema.Key, v []byte) bool {
		left.Insert(k, v)
		return true
	})
	m.roots = slices.Delete(m.roots, i+1, i+2)
	m.bounds = slices.Delete(m.bounds, i+1, i+2)
	return nil
}

func (m *refMultiRooted) Repartition(newBounds []schema.Key) (moved int, err error) {
	if len(newBounds) == 0 || newBounds[0] != 0 {
		return 0, fmt.Errorf("btree: invalid new bounds")
	}
	for i := 1; i < len(newBounds); i++ {
		if newBounds[i] <= newBounds[i-1] {
			return 0, fmt.Errorf("btree: new bounds must be strictly ascending")
		}
	}
	oldBounds := m.bounds
	roots := make([]*Tree, len(newBounds))
	for i := range roots {
		roots[i] = New()
	}
	for oldIdx, t := range m.roots {
		t.Ascend(func(k schema.Key, v []byte) bool {
			ni := sort.Search(len(newBounds), func(i int) bool { return newBounds[i] > k }) - 1
			roots[ni].Insert(k, v)
			// An entry "moved" if its new partition range differs from its old one.
			if oldIdx >= len(newBounds) || newBounds[ni] != oldBounds[oldIdx] {
				moved++
			}
			return true
		})
	}
	m.bounds = append([]schema.Key(nil), newBounds...)
	m.roots = roots
	return moved, nil
}

// checkTree is the structural oracle: all leaves at one depth, keys strictly
// ascending within and across nodes and inside the range their ancestors'
// separators (and the partition's [lo, hi)) leave them, the leaf chain visiting
// exactly the tree's leaves in order and ending in nil, size equal to the
// entries found, and no single-child root. It returns the leaf count and the
// height (edges from root to leaf).
func checkTree(t *testing.T, tr *Tree, lo, hi schema.Key) (leaves, height int) {
	t.Helper()
	var chain []*node
	entries, height := 0, -1
	var walk func(n *node, depth int, lo, hi schema.Key)
	walk = func(n *node, depth int, lo, hi schema.Key) {
		if len(n.keys) > maxKeys() {
			t.Fatalf("node holds %d keys, more than %d", len(n.keys), maxKeys())
		}
		for i, k := range n.keys {
			if k < lo || k >= hi || (i > 0 && k <= n.keys[i-1]) {
				t.Fatalf("key %d at depth %d out of order or outside [%d, %d): %v", k, depth, lo, hi, n.keys)
			}
		}
		if n.leaf {
			if height >= 0 && depth != height {
				t.Fatalf("leaf at depth %d, another at %d", depth, height)
			}
			if len(n.values) != len(n.keys) || n.children != nil {
				t.Fatalf("leaf with %d keys, %d values, %d children", len(n.keys), len(n.values), len(n.children))
			}
			height = depth
			entries += len(n.keys)
			chain = append(chain, n)
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("internal node with %d keys and %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			walk(c, depth+1, clo, chi)
		}
	}
	if !tr.root.leaf && len(tr.root.children) < 2 {
		t.Fatalf("root has %d children", len(tr.root.children))
	}
	walk(tr.root, 0, lo, hi)
	n := chain[0]
	for i, want := range chain {
		if n != want {
			t.Fatalf("leaf chain departs from the tree's leaves at leaf %d of %d", i, len(chain))
		}
		n = n.next
	}
	if n != nil {
		t.Fatalf("leaf chain runs on past the tree's last leaf (into keys %v)", n.keys)
	}
	if entries != tr.size {
		t.Fatalf("size %d, %d entries found", tr.size, entries)
	}
	return len(chain), height
}

// checkMultiRooted runs checkTree on every partition against its key range.
func checkMultiRooted(t *testing.T, m *MultiRooted) (leaves, height int) {
	t.Helper()
	for i, tr := range m.roots {
		hi := ^schema.Key(0)
		if i+1 < len(m.bounds) {
			hi = m.bounds[i+1]
		}
		l, h := checkTree(t, tr, m.bounds[i], hi)
		leaves, height = leaves+l, max(height, h)
	}
	return leaves, height
}

func scanAll(scan func(from, to schema.Key, fn func(schema.Key, []byte) bool)) (keys []schema.Key, vals []int64) {
	scan(0, ^schema.Key(0), func(k schema.Key, v []byte) bool {
		keys, vals = append(keys, k), append(vals, val(v))
		return true
	})
	return keys, vals
}

// randomBounds returns 0 plus n-1 distinct random keys below limit, ascending.
func randomBounds(rng *rand.Rand, n int, limit int64) []schema.Key {
	set := map[schema.Key]bool{0: true}
	for len(set) < n {
		set[schema.Key(1+rng.Int63n(limit-1))] = true
	}
	out := make([]schema.Key, 0, n)
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestRepartitioningMatchesReferenceModel drives the path-cutting MultiRooted
// and the row-by-row reference with the same seeded stream of splits, merges,
// re-boundings and row operations, and requires the same errors, indices,
// moved counts, bounds, sizes and contents after every step, with checkTree
// holding on every sub-tree. Seeds 1..seeds start the path-cutting tree
// inserted; as many more start it bulk-loaded (full, capped leaves).
func TestRepartitioningMatchesReferenceModel(t *testing.T) {
	const keySpace = 20000
	seeds, steps := 20, 300
	if testing.Short() {
		seeds, steps = 4, 200
	}
	for seed := 1; seed <= 2*seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		bounds := randomBounds(rng, 1+rng.Intn(8), keySpace)
		got, _ := NewMultiRooted(bounds)
		model, _ := NewMultiRooted(bounds)
		ref := &refMultiRooted{*model}
		loaded := seed > seeds // got starts from the reference's rows, bulk-loaded
		for i, n := 0, 500+rng.Intn(6000); i < n; i++ {
			k := schema.Key(rng.Int63n(keySpace))
			if !loaded {
				got.Insert(k, row(int64(i)))
			}
			ref.Insert(k, row(int64(i)))
		}
		if loaded {
			keys, vals := scanAll(ref.Scan)
			rows := make([][]byte, len(vals))
			for i, v := range vals {
				rows[i] = row(v)
			}
			if err := got.Load(keys, rows); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for step := 0; step < steps; step++ {
			var desc string
			var gotOut, refOut [2]int
			var gotErr, refErr error
			randKey := func() schema.Key { return schema.Key(rng.Int63n(keySpace * 5 / 4)) } // a fifth lie beyond the data
			switch op := rng.Intn(12); op {
			case 0, 1, 2: // split, sometimes at an existing bound
				at := randKey()
				if rng.Intn(5) == 0 {
					at = got.bounds[rng.Intn(len(got.bounds))]
				}
				desc = fmt.Sprintf("Split(%d)", at)
				gotOut[0], gotErr = got.Split(at)
				refOut[0], refErr = ref.Split(at)
			case 3, 4: // merge, sometimes out of range
				i := rng.Intn(len(got.bounds)+2) - 1
				desc = fmt.Sprintf("Merge(%d)", i)
				gotErr, refErr = got.Merge(i), ref.Merge(i)
			case 5, 6, 7: // re-bound
				nb := slices.Clone(got.bounds)
				kind := rng.Intn(7)
				switch kind {
				case 0: // identical
				case 1: // growing
					for i, n := 0, 1+rng.Intn(6); i < n; i++ {
						nb = append(nb, randKey())
					}
				case 2: // shrinking
					nb = slices.DeleteFunc(nb, func(k schema.Key) bool { return k != 0 && rng.Intn(2) == 0 })
				case 3: // shifted
					for i := 1; i < len(nb); i++ {
						nb[i] += schema.Key(rng.Intn(400))
					}
				case 4: // unrelated
					nb = randomBounds(rng, 1+rng.Intn(12), keySpace*5/4)
				case 5: // invalid: first bound not 0, or none at all
					nb = nb[1:]
				case 6: // invalid: not ascending
					nb = append(nb, nb[len(nb)-1])
				}
				if kind < 5 {
					slices.Sort(nb)
					nb = slices.Compact(nb)
				}
				desc = fmt.Sprintf("Repartition(%v) from %v", nb, got.bounds)
				gotOut[1], gotErr = got.Repartition(nb)
				refOut[1], refErr = ref.Repartition(slices.Clone(nb))
			case 8:
				k := randKey()
				desc = fmt.Sprintf("Insert(%d)", k)
				gotOut[0] = btoi(got.Insert(k, row(int64(step))))
				refOut[0] = btoi(ref.Insert(k, row(int64(step))))
			case 9:
				k := randKey()
				desc = fmt.Sprintf("Update(%d)", k)
				bump := func(r []byte) []byte { return row(val(r) + 1) }
				gotOut[0], refOut[0] = btoi(got.Update(k, bump)), btoi(ref.Update(k, bump))
			case 10:
				k := randKey()
				if keys, _ := scanAll(got.Scan); len(keys) > 0 && rng.Intn(4) > 0 {
					k = keys[rng.Intn(len(keys))]
				}
				desc = fmt.Sprintf("Delete(%d)", k)
				gotOut[0], refOut[0] = btoi(got.Delete(k)), btoi(ref.Delete(k))
			case 11: // a bounded scan, crossing partitions
				from := randKey()
				to := from + schema.Key(rng.Intn(keySpace/2))
				desc = fmt.Sprintf("Scan(%d, %d)", from, to)
				count := func(m interface {
					Scan(from, to schema.Key, fn func(schema.Key, []byte) bool)
				}) (n, sum int) {
					m.Scan(from, to, func(k schema.Key, _ []byte) bool { n, sum = n+1, sum+int(k); return true })
					return n, sum
				}
				gotOut[0], gotOut[1] = count(got)
				refOut[0], refOut[1] = count(ref)
			}
			where := fmt.Sprintf("seed %d step %d %s", seed, step, desc)
			if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
				t.Fatalf("%s: err %v, reference %v", where, gotErr, refErr)
			}
			if gotOut != refOut {
				t.Fatalf("%s: returned %v, reference %v", where, gotOut, refOut)
			}
			if !slices.Equal(got.Bounds(), ref.Bounds()) {
				t.Fatalf("%s: bounds %v, reference %v", where, got.Bounds(), ref.Bounds())
			}
			if !slices.Equal(got.PartitionSizes(), ref.PartitionSizes()) || got.Len() != ref.Len() {
				t.Fatalf("%s: sizes %v, reference %v", where, got.PartitionSizes(), ref.PartitionSizes())
			}
			gk, gv := scanAll(got.Scan)
			rk, rv := scanAll(ref.Scan)
			if !slices.Equal(gk, rk) || !slices.Equal(gv, rv) {
				t.Fatalf("%s: contents differ from the reference (%d against %d rows)", where, len(gk), len(rk))
			}
			checkMultiRooted(t, got)
			if t.Failed() {
				t.Fatalf("%s: structure broken", where)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRepartitionMovedRule spells the per-piece moved count out on small
// tables, one row per key 0..39. The last case is the quirk the virtual cost is
// billed with: an old partition whose index is past the new partition count is
// counted as moved wholesale, although partition 3's rows keep their lower
// bound 30.
func TestRepartitionMovedRule(t *testing.T) {
	k := func(ks ...schema.Key) []schema.Key { return ks }
	cases := []struct {
		name     string
		old, new []schema.Key
		moved    int
		sizes    []int
	}{
		{"identical", k(0, 10, 20, 30), k(0, 10, 20, 30), 0, []int{10, 10, 10, 10}},
		{"one bound added", k(0, 10, 20, 30), k(0, 10, 15, 20, 30), 5, []int{10, 5, 5, 10, 10}},
		{"one bound shifted", k(0, 10, 20, 30), k(0, 10, 25, 30), 10, []int{10, 15, 5, 10}},
		{"first bound dropped", k(0, 10, 20, 30), k(0, 20, 30), 20, []int{20, 10, 10}},
		{"all shifted", k(0, 10, 20, 30), k(0, 5, 15, 25), 35, []int{5, 10, 10, 15}},
		{"shrink keeps a bound, counts it moved", k(0, 10, 20, 30), k(0, 30), 30, []int{30, 10}},
	}
	for _, tc := range cases {
		got, _ := NewMultiRooted(tc.old)
		model, _ := NewMultiRooted(tc.old)
		ref := &refMultiRooted{*model}
		for i := int64(0); i < 40; i++ {
			got.Insert(schema.Key(i), row(i))
			ref.Insert(schema.Key(i), row(i))
		}
		moved, err := got.Repartition(tc.new)
		refMoved, refErr := ref.Repartition(tc.new)
		if err != nil || refErr != nil {
			t.Fatalf("%s: %v / %v", tc.name, err, refErr)
		}
		if moved != tc.moved || refMoved != tc.moved {
			t.Errorf("%s: moved %d (reference %d), want %d", tc.name, moved, refMoved, tc.moved)
		}
		if !slices.Equal(got.PartitionSizes(), tc.sizes) {
			t.Errorf("%s: sizes %v, want %v", tc.name, got.PartitionSizes(), tc.sizes)
		}
		checkMultiRooted(t, got)
	}
}

// TestRepartitionReusesUnchangedRoots: a sub-tree whose [lower, upper) the new
// bounds leave alone is the same *Tree afterwards, root node included.
func TestRepartitionReusesUnchangedRoots(t *testing.T) {
	m := loadedUniform(10000, 8, true)
	before := slices.Clone(m.roots)
	rootNodes := make([]*node, len(before))
	for i, tr := range before {
		rootNodes[i] = tr.root
	}
	nb := m.Bounds()
	nb[3] += 100 // partitions 2 and 3 change, the other six do not
	if _, err := m.Repartition(nb); err != nil {
		t.Fatal(err)
	}
	for i, tr := range m.roots {
		if i != 2 && i != 3 && (tr != before[i] || tr.root != rootNodes[i]) {
			t.Errorf("partition %d was rebuilt although its range did not change", i)
		}
	}
	checkMultiRooted(t, m)
}

// TestJoinSplitsOverfullSpine attaches thousands of full single-leaf trees to
// one end of a growing tree, so nothing coalesces and every attach adds a child
// to the spine: the spine's nodes, the root included, must split as an insert
// would split them, on either side.
func TestJoinSplitsOverfullSpine(t *testing.T) {
	const leaves = 5000
	fullLeaf := func(i int) *Tree {
		tr := New()
		for j := 0; j < maxKeys(); j++ {
			tr.Insert(schema.Key(i*maxKeys()+j), row(int64(i)))
		}
		return tr
	}
	appended, prepended := fullLeaf(0), fullLeaf(leaves-1)
	for i := 1; i < leaves; i++ {
		appended.join(fullLeaf(i))
		front := fullLeaf(leaves - 1 - i)
		front.join(prepended)
		prepended = front
	}
	for name, tr := range map[string]*Tree{"appended": appended, "prepended": prepended} {
		n, height := checkTree(t, tr, 0, ^schema.Key(0))
		if n != leaves || height != 3 || tr.Len() != leaves*maxKeys() {
			t.Errorf("%s: %d leaves, height %d, %d entries", name, n, height, tr.Len())
		}
		for _, i := range []int{0, leaves / 2, leaves - 1} {
			if v, ok := tr.Get(schema.Key(i * maxKeys())); !ok || val(v) != int64(i) {
				t.Errorf("%s: first key of leaf %d = %v, %v", name, i, v, ok)
			}
		}
	}
}

// loadedUniform builds a table of rows keys 0..rows-1 in parts uniform
// partitions, bulk-loaded (Load) or, with inserted set, inserted in key order.
func loadedUniform(rows int64, parts int, inserted bool) *MultiRooted {
	m, err := NewMultiRooted(UniformBounds(rows, parts))
	if err != nil {
		panic(err)
	}
	keys, vals := ascending(int(rows), 1)
	if !inserted {
		if err := m.Load(keys, vals); err != nil {
			panic(err)
		}
		return m
	}
	for i, k := range keys {
		m.Insert(k, vals[i])
	}
	return m
}

// ascending returns the keys 0, step, 2*step, … and a row per key holding it.
func ascending(n int, step int64) ([]schema.Key, [][]byte) {
	keys, vals := make([]schema.Key, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = schema.Key(int64(i)*step), row(int64(i)*step)
	}
	return keys, vals
}

// TestLoadMatchesInsert builds every size around the leaf and internal-node
// capacities under one partition, 32 uniform ones, and bounds that reach past
// the data (so the last partitions stay empty), and holds the bulk-loaded tree
// to the structural oracle and to a twin built by Insert: same sizes, same
// Ascend, same Get on every key and on the gaps between them, same Scan across
// partition seams. Run-time inserts into the gaps, which grow the capped
// leaves, and deletes must then keep both trees equal.
func TestLoadMatchesInsert(t *testing.T) {
	const step = 3 // keys 0, 3, 6, …: the gaps are where lookups miss
	full := maxKeys()
	for _, n := range []int{0, 1, full - 1, full, full + 1, full * (full + 1), full*(full+1) + 1, 100_000} {
		limit := int64(max(n, 1)) * step
		for _, layout := range []struct {
			name   string
			bounds []schema.Key
		}{
			{"one partition", []schema.Key{0}},
			{"32 uniform", UniformBounds(limit, 32)},
			{"past the data", UniformBounds(2*limit, 32)},
		} {
			where := fmt.Sprintf("%d rows, %s", n, layout.name)
			keys, vals := ascending(n, step)
			got, _ := NewMultiRooted(layout.bounds)
			if err := got.Load(keys, vals); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			want, _ := NewMultiRooted(layout.bounds)
			for i, k := range keys {
				want.Insert(k, vals[i])
			}
			same := func(stage string) {
				t.Helper()
				checkMultiRooted(t, got)
				if !slices.Equal(got.PartitionSizes(), want.PartitionSizes()) {
					t.Fatalf("%s %s: sizes %v, inserted %v", where, stage, got.PartitionSizes(), want.PartitionSizes())
				}
				gk, gv := scanAll(got.Scan)
				wk, wv := scanAll(want.Scan)
				if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
					t.Fatalf("%s %s: contents differ (%d against %d rows)", where, stage, len(gk), len(wk))
				}
				var ascended []schema.Key
				for _, tr := range got.roots {
					tr.Ascend(func(k schema.Key, _ []byte) bool { ascended = append(ascended, k); return true })
				}
				if !slices.Equal(ascended, wk) {
					t.Fatalf("%s %s: Ascend over the partitions differs from the inserted twin", where, stage)
				}
				for k := schema.Key(0); k < schema.Key(limit+step); k++ {
					g, gok := got.Get(k)
					w, wok := want.Get(k)
					if gok != wok || (gok && g[0] != w[0]) {
						t.Fatalf("%s %s: Get(%d) = %v, %v; inserted %v, %v", where, stage, k, g, gok, w, wok)
					}
				}
				for i := 1; i < len(layout.bounds); i++ { // a scan straddling each seam
					b := layout.bounds[i]
					from, to := b-min(b, 2*step), b+2*step
					var gs, ws []schema.Key
					got.Scan(from, to, func(k schema.Key, _ []byte) bool { gs = append(gs, k); return true })
					want.Scan(from, to, func(k schema.Key, _ []byte) bool { ws = append(ws, k); return true })
					if !slices.Equal(gs, ws) {
						t.Fatalf("%s %s: Scan(%d, %d) = %v, inserted %v", where, stage, from, to, gs, ws)
					}
				}
			}
			same("after load")
			if n > 100_000/2 {
				continue // the gap and delete legs gain nothing at this size
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 200; i++ {
				k := schema.Key(rng.Int63n(limit + step))
				if k%step == 0 {
					got.Delete(k)
					want.Delete(k)
				} else {
					got.Insert(k, row(-int64(k)))
					want.Insert(k, row(-int64(k)))
				}
			}
			same("after inserts and deletes")
		}
	}
	m, _ := NewMultiRooted([]schema.Key{0})
	if err := m.Load([]schema.Key{1, 2}, [][]byte{row(1)}); err == nil {
		t.Error("a key without a row should fail")
	}
	if err := m.Load([]schema.Key{1, 2, 2}, [][]byte{row(1), row(2), row(2)}); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("duplicate key: err = %v, want one naming row 2", err)
	}
	m.Insert(5, row(5))
	if err := m.Load([]schema.Key{1}, [][]byte{row(1)}); err == nil {
		t.Error("a load into a non-empty tree should fail")
	}
}

// TestRepartitioningDoesNotFragment: 1,000 random full re-boundings of a
// 100 K-row, 32-partition table leave at most a few seam nodes per partition
// behind, and back on the load-time bounds no lookup is deeper than at load.
// Seeds 1..seeds start from a table inserted in key order (half-full leaves),
// as many more from a bulk-loaded one (full leaves); each is held to its own
// shape at load.
func TestRepartitioningDoesNotFragment(t *testing.T) {
	const rows, parts = 100000, 32
	seeds, rounds := 20, 1000
	if testing.Short() {
		seeds, rounds = 2, 200
	}
	for seed := 1; seed <= 2*seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		m := loadedUniform(rows, parts, seed <= seeds)
		loadLeaves, loadHeight := checkMultiRooted(t, m)
		for round := 0; round < rounds; round++ {
			if _, err := m.Repartition(randomBounds(rng, parts, rows)); err != nil {
				t.Fatal(err)
			}
			if round%100 == 0 {
				if leaves, height := checkMultiRooted(t, m); leaves > loadLeaves+4*parts*height {
					t.Fatalf("seed %d round %d: %d leaves, %d at load", seed, round, leaves, loadLeaves)
				}
			}
		}
		if _, err := m.Repartition(UniformBounds(rows, parts)); err != nil {
			t.Fatal(err)
		}
		leaves, height := checkMultiRooted(t, m)
		if leaves > loadLeaves+4*parts*height {
			t.Errorf("seed %d: %d leaves after %d re-boundings, %d at load", seed, leaves, rounds, loadLeaves)
		}
		if height > loadHeight {
			t.Errorf("seed %d: lookups are %d deep, %d at load", seed, height, loadHeight)
		}
		if m.Len() != rows {
			t.Errorf("seed %d: %d rows left of %d", seed, m.Len(), rows)
		}
	}
}

// BenchmarkRepartition measures what a repartitioning costs the host as the
// table grows: it should stay flat in rows (a path cut and a seam join touch
// O(height) nodes; only counting a cut-off piece walks its leaves). Each case
// starts from a table inserted in key order and from a bulk-loaded one.
func BenchmarkRepartition(b *testing.B) {
	const parts = 32
	for _, rows := range []int64{10_000, 100_000, 1_000_000} {
		shifted := func(which func(i int) bool) []schema.Key {
			nb := UniformBounds(rows, parts)
			for i := 1; i < len(nb); i++ {
				if which(i) {
					nb[i] += schema.Key(rows / parts / 2)
				}
			}
			return nb
		}
		cases := []struct {
			name string
			alt  []schema.Key // the bounds every other iteration moves to; nil: split and merge at one key
		}{
			{"split+merge", nil},
			{"shift-2-of-32", shifted(func(i int) bool { return i == 10 || i == 20 })},
			{"shift-all-32", shifted(func(int) bool { return true })},
		}
		for _, tc := range cases {
			for _, start := range []string{"inserted", "loaded"} {
				b.Run(fmt.Sprintf("rows=%d/%s/%s", rows, tc.name, start), func(b *testing.B) {
					m := loadedUniform(rows, parts, start == "inserted")
					home := m.Bounds()
					at := home[parts/2] + schema.Key(rows/parts/2)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						switch {
						case tc.alt == nil:
							idx, err := m.Split(at)
							if err != nil {
								b.Fatal(err)
							}
							if err := m.Merge(idx - 1); err != nil {
								b.Fatal(err)
							}
						case i%2 == 0:
							m.Repartition(tc.alt)
						default:
							m.Repartition(home)
						}
					}
				})
			}
		}
	}
}
