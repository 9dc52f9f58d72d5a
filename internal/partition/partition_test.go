package partition

import (
	"encoding/binary"
	"testing"

	"atrapos/internal/btree"
	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func smallTop() *topology.Topology {
	return topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
}

func TestTablePlacementValidate(t *testing.T) {
	ok := &TablePlacement{
		Table:  "t",
		Bounds: btree.UniformBounds(100, 4),
		Cores:  []topology.CoreID{0, 1, 2, 3},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	bad := []*TablePlacement{
		{Table: "", Bounds: []schema.Key{0}, Cores: []topology.CoreID{0}},
		{Table: "t", Bounds: nil, Cores: nil},
		{Table: "t", Bounds: []schema.Key{5}, Cores: []topology.CoreID{0}},
		{Table: "t", Bounds: []schema.Key{0, 10, 10}, Cores: []topology.CoreID{0, 1, 2}},
		{Table: "t", Bounds: []schema.Key{0, 10}, Cores: []topology.CoreID{0}},
	}
	for i, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTablePlacementRouting(t *testing.T) {
	tp := &TablePlacement{
		Table:  "t",
		Bounds: btree.UniformBounds(100, 4),
		Cores:  []topology.CoreID{3, 5, 7, 9},
	}
	if tp.NumPartitions() != 4 {
		t.Errorf("NumPartitions = %d", tp.NumPartitions())
	}
	if tp.PartitionFor(schema.KeyFromInt(0)) != 0 || tp.PartitionFor(schema.KeyFromInt(99)) != 3 {
		t.Error("PartitionFor routed wrong")
	}
	if tp.CoreFor(schema.KeyFromInt(30)) != 5 {
		t.Errorf("CoreFor(30) = %d, want 5", tp.CoreFor(schema.KeyFromInt(30)))
	}
	clone := tp.Clone()
	clone.Cores[0] = 99
	if tp.Cores[0] == 99 {
		t.Error("Clone shares memory with original")
	}
}

func TestPlacementAggregates(t *testing.T) {
	p := NewPlacement()
	p.Tables["a"] = &TablePlacement{Table: "a", Bounds: btree.UniformBounds(100, 2), Cores: []topology.CoreID{0, 1}}
	p.Tables["b"] = &TablePlacement{Table: "b", Bounds: btree.UniformBounds(100, 3), Cores: []topology.CoreID{1, 2, 3}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalPartitions() != 5 {
		t.Errorf("TotalPartitions = %d", p.TotalPartitions())
	}
	names := p.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("TableNames = %v", names)
	}
	per := p.PartitionsPerCore()
	if per[1] != 2 || per[0] != 1 {
		t.Errorf("PartitionsPerCore = %v", per)
	}
	if _, ok := p.Table("a"); !ok {
		t.Error("Table(a) missing")
	}
	if _, ok := p.Table("zzz"); ok {
		t.Error("unexpected table")
	}
	clone := p.Clone()
	clone.Tables["a"].Cores[0] = 42
	if p.Tables["a"].Cores[0] == 42 {
		t.Error("Clone shares memory")
	}
	// Mismatched key fails validation.
	p.Tables["c"] = &TablePlacement{Table: "x", Bounds: []schema.Key{0}, Cores: []topology.CoreID{0}}
	if err := p.Validate(); err == nil {
		t.Error("mismatched placement key should fail validation")
	}
	delete(p.Tables, "c")
	p.Tables["d"] = &TablePlacement{Table: "d"}
	if err := p.Validate(); err == nil {
		t.Error("invalid table placement should fail validation")
	}
}

func TestNaivePerCore(t *testing.T) {
	top := smallTop()
	specs := []TableSpec{{Name: "a", MaxKey: 1600}, {Name: "b", MaxKey: 1600}}
	p := NaivePerCore(top, specs)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		tp := p.Tables[name]
		if tp.NumPartitions() != 16 {
			t.Errorf("table %s has %d partitions, want one per core (16)", name, tp.NumPartitions())
		}
	}
	// Every core owns exactly one partition of each table (two in total).
	for core, n := range p.PartitionsPerCore() {
		if n != 2 {
			t.Errorf("core %d owns %d partitions, want 2", core, n)
		}
	}
	// A failed socket is excluded.
	top.FailSocket(3)
	p2 := NaivePerCore(top, specs)
	if p2.Tables["a"].NumPartitions() != 12 {
		t.Errorf("after socket failure: %d partitions, want 12", p2.Tables["a"].NumPartitions())
	}
	for c := range p2.PartitionsPerCore() {
		if top.SocketOf(c) == 3 {
			t.Errorf("core %d on failed socket still used", c)
		}
	}
}

func TestPerSocket(t *testing.T) {
	top := smallTop()
	p := PerIsland(top, topology.LevelSocket, []TableSpec{{Name: "a", MaxKey: 400}})
	if p.Tables["a"].NumPartitions() != 4 {
		t.Errorf("per-socket placement has %d partitions", p.Tables["a"].NumPartitions())
	}
	for i, c := range p.Tables["a"].Cores {
		if top.SocketOf(c) != topology.SocketID(i) {
			t.Errorf("partition %d owned by core %d on socket %d", i, c, top.SocketOf(c))
		}
	}
}

func TestRuntime(t *testing.T) {
	top := smallTop()
	d := numa.MustNewDomain(top, numa.DefaultCostModel())
	p := NaivePerCore(top, []TableSpec{{Name: "a", MaxKey: 1600}})
	r := NewRuntime(d, p)
	if r.NumPartitions("a") != 16 {
		t.Errorf("runtime has %d partitions", r.NumPartitions("a"))
	}
	lm, err := r.Locks("a", 5)
	if err != nil {
		t.Fatal(err)
	}
	// The lock table of partition 5 is homed on the socket of core 5.
	if lm.Home() != top.SocketOf(p.Tables["a"].Cores[5]) {
		t.Errorf("lock table homed on %d, want %d", lm.Home(), top.SocketOf(p.Tables["a"].Cores[5]))
	}
	if _, err := r.Locks("zzz", 0); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := r.Locks("a", 99); err == nil {
		t.Error("unknown partition should error")
	}
	if r.NumPartitions("zzz") != 0 {
		t.Error("unknown table should have zero partitions")
	}
}

// FuzzPartitionFor checks the invariant that lets storage take the partition
// the engine's dispatch resolved instead of searching its tree again: for any
// strictly ascending bounds that start at 0, the placement's router and the
// multi-rooted tree's agree on every key. Each 9-byte chunk of raw adds one
// bound: a gap of the chunk's last 8 bytes shifted right by its first byte
// (mod 64), so gaps of every magnitude occur. Besides the fuzzed key, 0,
// ^schema.Key(0) and every bound ±1 are checked.
func FuzzPartitionFor(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte{60, 255, 255, 255, 255, 255, 255, 255, 255}, uint64(15))
	f.Add([]byte{
		56, 0, 0, 0, 0, 0, 0, 0, 100,
		56, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0, 64,
	}, uint64(100))
	f.Add([]byte{0, 255, 255, 255, 255, 255, 255, 255, 127, 0, 255, 255, 255, 255, 255, 255, 255, 127}, ^uint64(0))
	f.Add([]byte{63, 0, 0, 0, 0, 0, 0, 0, 128, 63, 0, 0, 0, 0, 0, 0, 0, 128, 1, 2, 3}, uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, key uint64) {
		bounds := []schema.Key{0}
		for ; len(raw) >= 9 && len(bounds) < 256; raw = raw[9:] {
			gap := binary.LittleEndian.Uint64(raw[1:9])>>(raw[0]%64) | 1
			next := bounds[len(bounds)-1] + schema.Key(gap)
			if next <= bounds[len(bounds)-1] {
				break // the key space is exhausted
			}
			bounds = append(bounds, next)
		}
		tp := &TablePlacement{Table: "t", Bounds: bounds, Cores: make([]topology.CoreID, len(bounds))}
		tree, err := btree.NewMultiRooted(bounds)
		if err != nil {
			t.Fatal(err)
		}
		keys := []schema.Key{schema.Key(key), 0, ^schema.Key(0)}
		for _, b := range bounds {
			keys = append(keys, b-1, b, b+1)
		}
		for _, k := range keys {
			if got, want := tp.PartitionFor(k), tree.PartitionFor(k); got != want {
				t.Fatalf("bounds %v key %d: placement routes to partition %d, tree to %d", bounds, k, got, want)
			}
		}
	})
}
