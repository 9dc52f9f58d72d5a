package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"atrapos/internal/schema"
)

// lowerBoundRef and upperBoundRef are the binary searches search replaced: the
// reference every in-node search must reproduce index for index.
func lowerBoundRef(keys []schema.Key, key schema.Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
}

func upperBoundRef(keys []schema.Key, key schema.Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// checkSearch holds search and childIndex to the references for one probe, and
// the search of each of leaves, which hold keys.
func checkSearch(t *testing.T, what string, keys []schema.Key, leaves []*node, key schema.Key, f fences) {
	t.Helper()
	want := lowerBoundRef(keys, key)
	if got := search(keys, key, f.lo, f.hi); got != want {
		t.Fatalf("%s: search(%v, %d, %d, %d) = %d, binary search %d", what, keys, key, f.lo, f.hi, got, want)
	}
	if got, want := childIndex(keys, key, f.lo, f.hi), upperBoundRef(keys, key); got != want {
		t.Fatalf("%s: childIndex(%v, %d, %d, %d) = %d, binary search %d", what, keys, key, f.lo, f.hi, got, want)
	}
	for _, n := range leaves {
		if got := n.search(key, f.lo, f.hi); got != want {
			t.Fatalf("%s: search of the leaf based at %d, shift %d (%v) for %d, fences %d, %d = %d, binary search %d",
				what, n.base, n.keyShift, keys, key, f.lo, f.hi, got, want)
		}
	}
}

// packedLeaves returns two leaves holding keys: one inserted in ascending
// order, so its base is its first key and its width grows with the span, and
// one in descending order, so every insert lands below the base.
func packedLeaves(keys []schema.Key) []*node {
	up, down := &node{leaf: true}, &node{leaf: true}
	for i, k := range keys {
		up.insertRow(i, k, nil)
		down.insertRow(0, keys[len(keys)-1-i], nil)
	}
	return []*node{up, down}
}

// TestSearchMatchesBinarySearch runs search against sort.Search over empty,
// one-key and full nodes in dense, strided, clustered, geometric and random
// sparse spacings, each starting at key 0 and pushed against ^schema.Key(0),
// probed below, above, between and at every key, under fences that are tight,
// loose, absent and not bracketing the keys at all.
func TestSearchMatchesBinarySearch(t *testing.T) {
	const top = ^schema.Key(0)
	rng := rand.New(rand.NewSource(1))
	spacings := []struct {
		name string
		gen  func(i int) schema.Key
	}{
		{"dense", func(i int) schema.Key { return schema.Key(i) }},
		{"stride-96", func(i int) schema.Key { return schema.Key(i * 96) }},
		{"clustered", func(i int) schema.Key { return schema.Key(i/8*1_000_000 + i%8) }},
		{"geometric", func(i int) schema.Key { return 1<<i - 1 }},
		{"random", func(int) schema.Key { return schema.Key(rng.Uint64()) }},
	}
	for _, sp := range spacings {
		for _, n := range []int{0, 1, 2, 3, degree, maxKeys()} {
			keys := make([]schema.Key, n)
			for i := range keys {
				keys[i] = sp.gen(i)
			}
			slices.Sort(keys)
			keys = slices.Compact(keys)
			high := slices.Clone(keys) // the same spacing, its last key at the top
			for i := range high {
				high[i] += top - keys[len(keys)-1]
			}
			for _, keys := range [][]schema.Key{keys, high} {
				leaves := packedLeaves(keys)
				probes := []schema.Key{0, 1, top - 1, top}
				for i, k := range keys {
					probes = append(probes, k-1, k, k+1) // wrapping at the ends is two more probes
					if i > 0 {
						probes = append(probes, keys[i-1]+(k-keys[i-1])/2)
					}
				}
				fs := []fences{{}, {0, top}, {1, 0}, {top - 9, top}, {0, 1}}
				if len(keys) > 0 {
					first, last := keys[0], keys[len(keys)-1]
					mid := keys[len(keys)/2]
					fs = append(fs,
						fences{first, last + 1}, // tight (at the top, last+1 wraps: absent)
						fences{first, last},
						fences{last, first},  // reversed
						fences{mid, mid + 1}, // inside, bracketing one key
						fences{first / 2, last/2 + last/4},
						fences{schema.Key(rng.Uint64() >> 1), top - schema.Key(rng.Uint64()>>1)},
					)
				}
				for _, f := range fs {
					for _, p := range probes {
						checkSearch(t, sp.name, keys, leaves, p, f)
					}
				}
			}
		}
	}
}

// FuzzSearch holds search and childIndex, and the search of two leaves packing
// the same keys (packedLeaves), to sort.Search on ascending runs of up to 255
// keys: start + i*stride plus a per-key jitter, sorted and compacted (a run
// that wraps past ^schema.Key(0) comes back sorted), probed at key and at the
// key it selects, under arbitrary fences. Spans of 255 and 256, 2^16-1 and
// 2^16, 2^32-1 and 2^32 are seeds, from near 0 and up to 2^64-1: the second of
// each pair packs one width wider. The seeds below run with every `go test`;
// `go test -fuzz FuzzSearch ./internal/btree` explores.
func FuzzSearch(f *testing.F) {
	const top = ^uint64(0)
	f.Add(uint64(0), uint64(1), uint8(63), []byte(nil), uint64(31), uint64(0), uint64(63))
	f.Add(uint64(0), uint64(96), uint8(63), []byte(nil), uint64(96*40+5), uint64(0), uint64(96*63))
	f.Add(top-62, uint64(1), uint8(63), []byte(nil), top, uint64(0), uint64(0))
	f.Add(uint64(1000), uint64(7), uint8(20), []byte{3, 250, 9}, uint64(1050), uint64(5000), uint64(10))
	f.Add(uint64(0), uint64(1)<<58, uint8(63), []byte(nil), uint64(1)<<62, uint64(0), top)
	f.Add(uint64(5), uint64(0), uint8(1), []byte(nil), uint64(5), uint64(5), uint64(6))
	f.Add(uint64(0), uint64(0), uint8(0), []byte(nil), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1)<<40, uint64(3), uint8(255), []byte{0, 1, 2}, top, top-1, top)
	for _, span := range []uint64{1<<8 - 1, 1 << 8, 1<<16 - 1, 1 << 16, 1<<32 - 1, 1 << 32} {
		f.Add(uint64(7), span/62, uint8(63), []byte{0, 0, byte(span % 62)}, uint64(7)+span/2, uint64(0), uint64(0))
		f.Add(top-span, span, uint8(2), []byte(nil), top-span/2, top-span, top)
	}
	f.Fuzz(func(t *testing.T, start, stride uint64, n uint8, jitter []byte, key, lo, hi uint64) {
		keys := make([]schema.Key, n)
		for i := range keys {
			keys[i] = schema.Key(start + uint64(i)*stride)
			if len(jitter) > 0 {
				keys[i] += schema.Key(jitter[i%len(jitter)])
			}
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		fs, leaves := fences{schema.Key(lo), schema.Key(hi)}, packedLeaves(keys)
		checkSearch(t, "fuzz", keys, leaves, schema.Key(key), fs)
		if len(keys) > 0 {
			checkSearch(t, "fuzz, at a key", keys, leaves, keys[key%uint64(len(keys))], fs)
		}
	})
}

// TestPartitionForMatchesBinarySearch routes every key around every bound of
// uniform, random and single-partition layouts as the last bound <= key.
func TestPartitionForMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bounds := range [][]schema.Key{{0}, UniformBounds(1_000_000, 80), randomBounds(rng, 32, 1<<40)} {
		m, err := NewMultiRooted(bounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range append(slices.Clone(bounds), ^schema.Key(0)) {
			for _, k := range []schema.Key{b - 1, b, b + 1} {
				if got, want := m.PartitionFor(k), upperBoundRef(bounds, k)-1; got != want {
					t.Fatalf("%d bounds: PartitionFor(%d) = %d, want %d", len(bounds), k, got, want)
				}
			}
		}
	}
}
