package lock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"atrapos/internal/numa"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
)

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IS, true}, {IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, IS, true}, {S, IX, false}, {S, S, true}, {S, X, false},
		{X, IS, false}, {X, IX, false}, {X, S, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if Compatible(Mode(9), S) {
		t.Error("unknown mode should be incompatible")
	}
}

func TestCompatibilitySymmetryProperty(t *testing.T) {
	prop := func(aRaw, bRaw uint8) bool {
		a, b := Mode(aRaw%4), Mode(bRaw%4)
		return Compatible(a, b) == Compatible(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{IS, IX, S, X, Mode(7)} {
		if m.String() == "" {
			t.Errorf("mode %d has empty string", m)
		}
	}
}

func TestResourceHelpers(t *testing.T) {
	tr := TableResource("t")
	if tr.Kind != TableKind || tr.Table != "t" {
		t.Errorf("TableResource = %+v", tr)
	}
	rr := RowResource("t", schema.KeyFromInt(5))
	if rr.Kind != RowKind || rr.Key != schema.KeyFromInt(5) {
		t.Errorf("RowResource = %+v", rr)
	}
}

func TestTableAcquireReleaseBasics(t *testing.T) {
	lt := NewTable()
	res := RowResource("a", schema.KeyFromInt(1))

	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, res, S); err != nil {
		t.Fatal("second shared lock should be granted")
	}
	if err := lt.Acquire(3, res, X); err != ErrConflict {
		t.Fatalf("X over S should conflict, got %v", err)
	}
	if lt.Holders(res) != 2 {
		t.Errorf("Holders = %d, want 2", lt.Holders(res))
	}
	if m, ok := lt.Held(1, res); !ok || m != S {
		t.Errorf("Held(1) = %v,%v", m, ok)
	}
	lt.ReleaseAll(1)
	lt.ReleaseAll(2)
	if err := lt.Acquire(3, res, X); err != nil {
		t.Fatalf("X after release should be granted: %v", err)
	}
	if lt.Len() != 1 {
		t.Errorf("Len = %d, want 1", lt.Len())
	}
	if n := lt.ReleaseAll(3); n != 1 {
		t.Errorf("ReleaseAll(3) = %d, want 1", n)
	}
	if lt.Len() != 0 {
		t.Errorf("lock table should be empty, Len = %d", lt.Len())
	}
	if _, ok := lt.Held(3, res); ok {
		t.Error("lock still held after ReleaseAll")
	}
}

func TestTableReacquireAndUpgrade(t *testing.T) {
	lt := NewTable()
	res := RowResource("a", schema.KeyFromInt(9))
	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring a weaker-or-equal mode succeeds.
	if err := lt.Acquire(1, res, S); err != nil {
		t.Fatal(err)
	}
	// Upgrade S -> X succeeds while sole holder.
	if err := lt.Acquire(1, res, X); err != nil {
		t.Fatal(err)
	}
	if m, _ := lt.Held(1, res); m != X {
		t.Errorf("mode after upgrade = %v, want X", m)
	}
	// Upgrade under contention fails.
	res2 := RowResource("a", schema.KeyFromInt(10))
	lt.Acquire(1, res2, S)
	lt.Acquire(2, res2, S)
	if err := lt.Acquire(1, res2, X); err != ErrConflict {
		t.Errorf("upgrade with other holders should conflict, got %v", err)
	}
	// X holder can re-acquire S (subsumed).
	if err := lt.Acquire(1, res, S); err != nil {
		t.Errorf("X holder re-acquiring S should succeed: %v", err)
	}
}

func TestIntentionLocks(t *testing.T) {
	lt := NewTable()
	table := TableResource("orders")
	if err := lt.Acquire(1, table, IX); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire(2, table, IX); err != nil {
		t.Fatal("two IX locks should coexist")
	}
	if err := lt.Acquire(3, table, S); err != ErrConflict {
		t.Error("S should conflict with IX")
	}
	if err := lt.Acquire(3, table, IS); err != nil {
		t.Error("IS should coexist with IX")
	}
	if err := lt.Acquire(4, table, X); err != ErrConflict {
		t.Error("X should conflict with everything")
	}
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	lt := NewTable()
	if n := lt.ReleaseAll(1); n != 0 {
		t.Errorf("ReleaseAll of unknown txn = %d", n)
	}
	if lt.Holders(RowResource("a", 1)) != 0 {
		t.Error("unexpected holders")
	}
}

// refTable is the lock table as it was before the held list: bucket-striped
// maps of per-entry holder maps, released by scanning every entry of every
// bucket. It is kept, without its mutexes and entry pool, as the reference the
// grant-list Table is compared against.
type refTable struct {
	buckets []map[ResourceID]map[TxnID]Mode
	hash    *CentralManager // BucketFor only: the bucket of a resource is not under test
}

func newRefTable(nBuckets int) *refTable {
	t := &refTable{buckets: make([]map[ResourceID]map[TxnID]Mode, nBuckets), hash: NewCentralManager(newDomain(1), nBuckets, false)}
	for i := range t.buckets {
		t.buckets[i] = make(map[ResourceID]map[TxnID]Mode)
	}
	return t
}

func (t *refTable) bucket(res ResourceID) map[ResourceID]map[TxnID]Mode {
	return t.buckets[t.hash.BucketFor(res)]
}

func (t *refTable) Acquire(txn TxnID, res ResourceID, mode Mode) error {
	b := t.bucket(res)
	holders := b[res]
	if holders == nil {
		holders = make(map[TxnID]Mode, 2)
		b[res] = holders
	}
	if held, ok := holders[txn]; ok && stronger(held, mode) {
		return nil
	}
	for other, otherMode := range holders {
		if other == txn {
			continue
		}
		if !Compatible(mode, otherMode) {
			return ErrConflict
		}
	}
	if held, ok := holders[txn]; !ok || !stronger(held, mode) {
		holders[txn] = mode
	}
	return nil
}

func (t *refTable) ReleaseAll(txn TxnID) int {
	released := 0
	for _, b := range t.buckets {
		for res, holders := range b {
			if _, ok := holders[txn]; ok {
				delete(holders, txn)
				released++
				if len(holders) == 0 {
					delete(b, res)
				}
			}
		}
	}
	return released
}

func (t *refTable) Held(txn TxnID, res ResourceID) (Mode, bool) {
	m, ok := t.bucket(res)[res][txn]
	return m, ok
}

func (t *refTable) Holders(res ResourceID) int { return len(t.bucket(res)[res]) }

func (t *refTable) Len() int {
	total := 0
	for _, b := range t.buckets {
		total += len(b)
	}
	return total
}

// matchReference requires the Table and the reference to agree on Len, on
// Holders of every resource of universe, on Held of every transaction 1..txns
// on it, and the held list to have one record per grant.
func matchReference(t *testing.T, step int, got *Table, want *refTable, universe []ResourceID, txns TxnID) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: Len = %d, reference %d", step, got.Len(), want.Len())
	}
	grants := 0
	for _, res := range universe {
		if g, w := got.Holders(res), want.Holders(res); g != w {
			t.Fatalf("step %d: Holders(%v) = %d, reference %d", step, res, g, w)
		}
		grants += want.Holders(res)
		for id := TxnID(1); id <= txns; id++ {
			gm, gok := got.Held(id, res)
			wm, wok := want.Held(id, res)
			if gm != wm || gok != wok {
				t.Fatalf("step %d: Held(%d, %v) = %v,%v, reference %v,%v", step, id, res, gm, gok, wm, wok)
			}
		}
	}
	if len(got.held) != grants {
		t.Fatalf("step %d: held list has %d records for %d grants", step, len(got.held), grants)
	}
}

// acquireBoth and releaseBoth apply one step to the Table and the reference
// and require the same error or release count.
func acquireBoth(t *testing.T, step int, got *Table, want *refTable, id TxnID, res ResourceID, mode Mode) {
	t.Helper()
	if g, w := got.Acquire(id, res, mode), want.Acquire(id, res, mode); g != w {
		t.Fatalf("step %d: Acquire(%d, %v, %v) = %v, reference %v", step, id, res, mode, g, w)
	}
}

func releaseBoth(t *testing.T, step int, got *Table, want *refTable, id TxnID) {
	t.Helper()
	if g, w := got.ReleaseAll(id), want.ReleaseAll(id); g != w {
		t.Fatalf("step %d: ReleaseAll(%d) = %d, reference %d", step, id, g, w)
	}
}

// TestTableMatchesScanEveryBucketReference drives the Table and the reference
// with the same seeded random streams — several transactions in flight,
// acquires, re-acquires, upgrades, conflicting requests, releases of holders
// and of transactions that hold nothing — and requires identical errors,
// release counts, Held, Holders and Len at every step. The bucket count
// stripes only the reference; the Table has none.
func TestTableMatchesScanEveryBucketReference(t *testing.T) {
	var universe []ResourceID
	for _, table := range []string{"a", "b"} {
		universe = append(universe, TableResource(table))
		for k := int64(0); k < 6; k++ {
			universe = append(universe, RowResource(table, schema.KeyFromInt(k)))
		}
	}
	const txns = 6 // IDs 1..txns take locks; IDs above them only ever release
	for _, buckets := range []int{1, 8, 256} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("buckets=%d/seed=%d", buckets, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got, want := NewTable(), newRefTable(buckets)
				for step := 0; step < 4000; step++ {
					if rng.Intn(10) < 8 {
						acquireBoth(t, step, got, want, TxnID(1+rng.Intn(txns)), universe[rng.Intn(len(universe))], Mode(rng.Intn(4)))
					} else {
						releaseBoth(t, step, got, want, TxnID(1+rng.Intn(txns+2)))
					}
					matchReference(t, step, got, want, universe, txns)
				}
				for id := TxnID(1); id <= txns; id++ {
					releaseBoth(t, -1, got, want, id)
				}
				if got.Len() != 0 || len(got.held) != 0 {
					t.Errorf("after releasing every transaction: Len = %d, %d held records", got.Len(), len(got.held))
				}
			})
		}
	}
}

// FuzzTable holds the Table to the reference on arbitrary step sequences. Each
// byte is one step: with the top bit clear it is an acquire by transaction
// 1+bits 5-6 in mode bits 3-4 of resource bits 0-2 (two table resources and
// three rows of each table); with it set, a ReleaseAll of transaction 1+bits
// 0-2, so transactions 5..8 only ever release nothing. The seeds below run
// with every `go test`; `go test -fuzz FuzzTable ./internal/lock` explores.
func FuzzTable(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x00, 0x18, 0x80})                         // IS upgraded to X on table a, released
	f.Add([]byte{0x12, 0x32, 0x52, 0x72, 0x3a, 0x81, 0x82}) // four S holders of a row; an X upgrade conflicts
	f.Add([]byte{0x08, 0x18, 0x28, 0x04, 0x24, 0x80, 0x28}) // X on table a shuts out another IX until released
	f.Add([]byte{0x1c, 0x3c, 0x5d, 0x87, 0x7f, 0x7e, 0x83, 0x80, 0x1c})
	f.Fuzz(func(t *testing.T, steps []byte) {
		universe := []ResourceID{TableResource("a"), TableResource("b")}
		for k := int64(0); k < 3; k++ {
			universe = append(universe, RowResource("a", schema.KeyFromInt(k)), RowResource("b", schema.KeyFromInt(k)))
		}
		got, want := NewTable(), newRefTable(8)
		for i, b := range steps {
			if b&0x80 == 0 {
				acquireBoth(t, i, got, want, TxnID(1+b>>5&3), universe[b&7], Mode(b>>3&3))
			} else {
				releaseBoth(t, i, got, want, TxnID(1+b&7))
			}
			matchReference(t, i, got, want, universe, 4)
		}
	})
}

// TestUpgradeAddsNoHeldRecord: a lock upgraded in place is still one lock, so
// ReleaseAll reports (and the central manager prices) one release.
func TestUpgradeAddsNoHeldRecord(t *testing.T) {
	lt := NewTable()
	row, table := RowResource("a", schema.KeyFromInt(1)), TableResource("a")
	for _, step := range []struct {
		res  ResourceID
		mode Mode
	}{{table, IS}, {row, S}, {table, IX}, {row, X}, {row, S}} {
		if err := lt.Acquire(1, step.res, step.mode); err != nil {
			t.Fatal(err)
		}
	}
	if m, _ := lt.Held(1, row); m != X {
		t.Errorf("row mode after S->X = %v, want X", m)
	}
	if m, _ := lt.Held(1, table); m != IX {
		t.Errorf("table mode after IS->IX = %v, want IX", m)
	}
	if n := lt.ReleaseAll(1); n != 2 {
		t.Errorf("ReleaseAll after two upgrades = %d, want 2 (one per resource)", n)
	}
	if lt.Len() != 0 {
		t.Errorf("Len = %d after ReleaseAll", lt.Len())
	}
}

func newDomain(sockets int) *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: 2})
	return numa.NewDomain(top)
}

func TestCentralManagerCostsGrowAcrossSockets(t *testing.T) {
	d := newDomain(8)
	m := NewCentralManager(d, 16, false)
	res := RowResource("t", schema.KeyFromInt(1))

	// Repeated acquisition from socket 0 is cheap; alternating sockets pays
	// cache-line transfers.
	var local, remote numa.Cost
	for i := 0; i < 50; i++ {
		c, err := m.Acquire(0, TxnID(i*2+1), res, S)
		if err != nil {
			t.Fatal(err)
		}
		local += c
	}
	for i := 0; i < 50; i++ {
		c, err := m.Acquire(topology.SocketID(i%8), TxnID(1000+i), res, S)
		if err != nil {
			t.Fatal(err)
		}
		remote += c
	}
	if remote <= local {
		t.Errorf("multi-socket acquisition cost %d should exceed single-socket %d", remote, local)
	}
	cost, n := m.ReleaseAll(0, 1)
	if n != 1 || cost <= 0 {
		t.Errorf("ReleaseAll = %d locks, cost %d", n, cost)
	}
}

func TestCentralManagerConflict(t *testing.T) {
	d := newDomain(2)
	m := NewCentralManager(d, 16, false)
	res := RowResource("t", schema.KeyFromInt(7))
	if _, err := m.Acquire(0, 1, res, X); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(1, 2, res, X); err != ErrConflict {
		t.Errorf("expected conflict, got %v", err)
	}
}

func TestSpeculativeLockInheritance(t *testing.T) {
	d := newDomain(2)
	m := NewCentralManager(d, 16, true)
	table := TableResource("orders")

	c1, err := m.Acquire(0, 1, table, IX)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= 0 {
		t.Error("first acquisition should pay the bucket cost")
	}
	m.ReleaseAll(0, 1)
	m.RetainForSLI(0, table, IX)

	// Next transaction on the same socket inherits the table lock for free.
	c2, err := m.Acquire(0, 2, table, IS)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Errorf("inherited acquisition cost %d, want 0", c2)
	}
	if m.SLIHits() != 1 {
		t.Errorf("SLIHits = %d, want 1", m.SLIHits())
	}
	// Row locks are never inherited.
	m.RetainForSLI(0, RowResource("orders", 1), X)
	if c, _ := m.Acquire(0, 3, RowResource("orders", 1), X); c == 0 {
		t.Error("row locks must not be served by SLI")
	}
	// SLI disabled manager never hits.
	m2 := NewCentralManager(d, 16, false)
	m2.RetainForSLI(0, table, IX)
	if c, _ := m2.Acquire(0, 1, table, IS); c == 0 {
		t.Error("SLI-disabled manager should pay the bucket cost")
	}
	if m2.Table() == nil || m.Table() == nil {
		t.Error("Table accessor returned nil")
	}

	// The per-socket retained lists: each case retains table locks on a fresh
	// manager, checks how many records each socket keeps, then probes which
	// table-lock requests SLI serves (cost 0, one hit) and which pay a bucket.
	type retain struct {
		s     topology.SocketID
		table string
		mode  Mode
	}
	type probe struct {
		s     topology.SocketID
		table string
		mode  Mode
		hit   bool
	}
	cases := []struct {
		name    string
		retains []retain
		records []int // per socket
		probes  []probe
	}{
		{"two sockets inherit independently",
			[]retain{{0, "a", IX}, {1, "a", IS}}, []int{1, 1},
			[]probe{{0, "a", IX, true}, {1, "a", IS, true}, {1, "a", IX, false}, {0, "b", IS, false}}},
		{"two tables on one socket",
			[]retain{{0, "a", IX}, {0, "b", IS}}, []int{2, 0},
			[]probe{{0, "a", IS, true}, {0, "b", IS, true}, {0, "b", IX, false}, {1, "a", IS, false}}},
		{"an upgrade is one record",
			[]retain{{0, "a", IS}, {0, "a", IX}}, []int{1, 0},
			[]probe{{0, "a", IX, true}, {0, "a", IS, true}}},
		{"IS does not serve IX",
			[]retain{{1, "a", IS}}, []int{0, 1},
			[]probe{{1, "a", IX, false}, {1, "a", S, false}, {1, "a", IS, true}}},
	}
	for _, tc := range cases {
		m := NewCentralManager(d, 16, true)
		for _, r := range tc.retains {
			m.RetainForSLI(r.s, TableResource(r.table), r.mode)
		}
		for s, want := range tc.records {
			if got := len(m.sli[s]); got != want {
				t.Errorf("%s: socket %d keeps %d records, want %d", tc.name, s, got, want)
			}
		}
		for i, p := range tc.probes {
			hits := m.SLIHits()
			c, err := m.Acquire(p.s, TxnID(100+i), TableResource(p.table), p.mode)
			if err != nil {
				t.Fatalf("%s: probe %d: %v", tc.name, i, err)
			}
			if hit := m.SLIHits() > hits; hit != p.hit || hit != (c == 0) {
				t.Errorf("%s: %v on %q from socket %d: hit=%v cost=%d, want hit=%v", tc.name, p.mode, p.table, p.s, hit, c, p.hit)
			}
			m.ReleaseAll(p.s, TxnID(100+i))
		}
	}
}

func TestLocalManagerStaysLocal(t *testing.T) {
	d := newDomain(4)
	m := NewLocalManagerAt(d, 6) // two cores per socket: core 6 is on socket 3
	if m.Home() != 3 {
		t.Errorf("Home = %d, want 3", m.Home())
	}
	res := RowResource("t", schema.KeyFromInt(5))
	c, err := m.Acquire(3, 1, res, X)
	if err != nil {
		t.Fatal(err)
	}
	if c != numa.LocalAtomic {
		t.Errorf("local acquisition cost %d, want %d", c, numa.LocalAtomic)
	}
	cost, n := m.ReleaseAll(3, 1)
	if n != 1 || cost != numa.LocalAtomic {
		t.Errorf("ReleaseAll cost %d count %d", cost, n)
	}
	if cost, n := m.ReleaseAll(3, 99); n != 0 || cost != 0 {
		t.Errorf("releasing nothing should be free, got cost %d count %d", cost, n)
	}
	// Access from another socket pays the cache-line transfer.
	c, _ = m.Acquire(0, 2, res, X)
	if c <= numa.LocalAtomic {
		t.Errorf("remote acquisition cost %d should exceed local", c)
	}
	if m.Table() == nil {
		t.Error("Table accessor returned nil")
	}
}

// lockRows is the acquire half of a priced transaction's steady-state shape:
// an intention lock, then row locks, through one manager's Acquire.
func lockRows(acquire func(topology.SocketID, TxnID, ResourceID, Mode) (numa.Cost, error), txn TxnID, rows int) {
	acquire(0, txn, TableResource("t"), IX)
	for k := 0; k < rows; k++ {
		acquire(0, txn, RowResource("t", schema.Key(uint64(txn)*16+uint64(k))), X)
	}
}

// TestLockCycleZeroAllocs: once the held list and the SLI list are warm,
// acquiring and releasing fresh resources allocates nothing, on either
// manager, with SLI on or off (the SLI hand-over is a no-op with it off).
func TestLockCycleZeroAllocs(t *testing.T) {
	d := newDomain(2)
	central := func(m *CentralManager) func(TxnID) {
		return func(txn TxnID) {
			lockRows(m.Acquire, txn, 2)
			m.ReleaseAll(0, txn)
			m.RetainForSLI(0, TableResource("t"), IX)
		}
	}
	local := NewLocalManagerAt(d, 0)
	cases := []struct {
		name  string
		cycle func(TxnID)
	}{
		{"central", central(NewCentralManager(d, 256, false))},
		{"central-sli", central(NewCentralManager(d, 256, true))},
		{"local", func(txn TxnID) {
			lockRows(local.Acquire, txn, 2)
			local.ReleaseAll(0, txn)
		}},
	}
	for _, tc := range cases {
		txn := TxnID(1)
		cycle := func() {
			tc.cycle(txn)
			txn++
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per acquire x3 + ReleaseAll cycle, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkAcquireReleaseAll is the lock layer's own number: one transaction's
// acquires and its ReleaseAll on a bare Table, with inflight other
// transactions holding a row lock each in the same table. Every operation
// scans the grant list, so ns/op grows with the locks per transaction and
// with the grants of the transactions in flight beside it.
func BenchmarkAcquireReleaseAll(b *testing.B) {
	for _, inflight := range []int{0, 8} {
		for _, locks := range []int{1, 3, 10} {
			b.Run(fmt.Sprintf("inflight=%d/locks=%d", inflight, locks), func(b *testing.B) {
				lt := NewTable()
				for j := 0; j < inflight; j++ {
					lt.Acquire(TxnID(j+1), RowResource("u", schema.Key(j)), X)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					txn := TxnID(inflight + i + 1)
					for k := 0; k < locks; k++ {
						lt.Acquire(txn, RowResource("t", schema.Key(i*16+k)), X)
					}
					if lt.ReleaseAll(txn) != locks {
						b.Fatal("ReleaseAll lost a lock")
					}
				}
			})
		}
	}
}
