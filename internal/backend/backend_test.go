package backend

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
)

func testHash(t *testing.T, islands int) *HashBackend {
	t.Helper()
	return testHashLog(t, islands, wal.Config{PerByteCost: 1, FlushCost: 12000, GroupSize: 4, Keep: 0, CoalesceRecords: 8})
}

func testHashLog(t testing.TB, islands int, log wal.Config) *HashBackend {
	t.Helper()
	homes := make([]topology.SocketID, islands)
	b, err := NewHash(HashConfig{
		Islands: islands,
		Tables:  []string{"alpha", "beta"},
		Homes:   homes,
		Log:     log,
	})
	if err != nil {
		t.Fatalf("NewHash: %v", err)
	}
	return b
}

func TestHashBackendPutGetDelete(t *testing.T) {
	b := testHash(t, 3)
	if got := b.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want next pow2 of 3 = 4", got)
	}
	for i := 0; i < 1000; i++ {
		k := schema.Key(i * 7)
		b.Put(b.ShardOf(0, k), 0, k, 1, uint64(i))
	}
	for i := 0; i < 1000; i++ {
		k := schema.Key(i * 7)
		v, ok := b.Get(b.ShardOf(0, k), 0, k)
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	// Other table stays empty.
	if _, ok := b.Get(b.ShardOf(1, 7), 1, 7); ok {
		t.Fatal("key leaked across tables")
	}
	// Overwrite then delete.
	k := schema.Key(7)
	b.Put(b.ShardOf(0, k), 0, k, 2, 999)
	if v, _ := b.Get(b.ShardOf(0, k), 0, k); v != 999 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if !b.Delete(b.ShardOf(0, k), 0, k, 3) {
		t.Fatal("Delete of present key returned false")
	}
	if _, ok := b.Get(b.ShardOf(0, k), 0, k); ok {
		t.Fatal("deleted key still readable")
	}
	if b.Delete(b.ShardOf(0, k), 0, k, 4) {
		t.Fatal("Delete of absent key returned true")
	}
}

// TestOpenIndexChurn stresses growth, tombstone reuse, and probe-chain
// integrity against a shadow map.
func TestOpenIndexChurn(t *testing.T) {
	var x openIndex
	shadow := make(map[schema.Key]uint64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		k := schema.Key(rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			wantInsert := true
			if _, ok := shadow[k]; ok {
				wantInsert = false
			}
			if got := x.put(k, v); got != wantInsert {
				t.Fatalf("put(%d) insert=%v, want %v", k, got, wantInsert)
			}
			shadow[k] = v
		case 2:
			_, present := shadow[k]
			if got := x.del(k); got != present {
				t.Fatalf("del(%d) = %v, want %v", k, got, present)
			}
			delete(shadow, k)
		}
	}
	if x.len() != len(shadow) {
		t.Fatalf("live count %d, shadow %d", x.len(), len(shadow))
	}
	for k, v := range shadow {
		got, ok := x.get(k)
		if !ok || got != v {
			t.Fatalf("get(%d) = %d, %v; want %d, true", k, got, ok, v)
		}
	}
	seen := 0
	x.scan(func(k schema.Key, v uint64) bool {
		if shadow[k] != v {
			t.Fatalf("scan saw (%d, %d), shadow has %d", k, v, shadow[k])
		}
		seen++
		return true
	})
	if seen != len(shadow) {
		t.Fatalf("scan visited %d, want %d", seen, len(shadow))
	}
}

func TestHashBackendCrashRecover(t *testing.T) {
	b := testHash(t, 2)
	shadow := make(map[int]map[schema.Key]bool)
	for ti := 0; ti < 2; ti++ {
		shadow[ti] = make(map[schema.Key]bool)
	}
	// Bulk load, committed via FinishLoad.
	for i := 0; i < 64; i++ {
		k := schema.Key(i)
		b.Load(b.ShardOf(0, k), 0, k, uint64(i))
		shadow[0][k] = true
	}
	b.FinishLoad(0)
	// Committed transactions: inserts, overwrites, deletes across both tables.
	txn := uint64(1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ti := rng.Intn(2)
		k := schema.Key(rng.Intn(128))
		shard := b.ShardOf(ti, k)
		island := b.Owner(shard)
		if rng.Intn(4) == 0 {
			if b.Delete(shard, ti, k, txn) {
				delete(shadow[ti], k)
			}
		} else {
			b.Put(shard, ti, k, txn, uint64(i))
			shadow[ti][k] = true
		}
		b.Commit(island, txn, vnanos(i))
		txn++
	}
	// A loser: writes with no commit record must not survive recovery.
	loserKey := schema.Key(5000)
	b.Put(b.ShardOf(0, loserKey), 0, loserKey, txn, 1)

	b.CrashAndRecover(vnanos(1000))

	sets := b.TableKeySets()
	for ti, name := range []string{"alpha", "beta"} {
		got := sets[name]
		if len(got) != len(shadow[ti]) {
			t.Fatalf("table %s: recovered %d keys, want %d", name, len(got), len(shadow[ti]))
		}
		for _, k := range got {
			if !shadow[ti][k] {
				t.Fatalf("table %s: recovered unexpected key %d", name, k)
			}
		}
	}
	if _, ok := b.Get(b.ShardOf(0, loserKey), 0, loserKey); ok {
		t.Fatal("uncommitted write survived recovery")
	}
}

func TestHashBackendReshard(t *testing.T) {
	b := testHash(t, 4)
	want := make(map[schema.Key]uint64)
	for i := 0; i < 500; i++ {
		k := schema.Key(i * 3)
		b.Put(b.ShardOf(0, k), 0, k, 1, uint64(i))
		want[k] = uint64(i)
	}
	before := b.TableKeySets()["alpha"]

	// Coarsen 4 islands -> 2, routing by parity.
	b.Reshard(2, []topology.SocketID{0, 1}, func(table int, key schema.Key) int {
		return int(key) % 2
	})
	if b.Islands() != 2 || b.Shards() != 2 {
		t.Fatalf("after reshard: islands=%d shards=%d, want 2/2", b.Islands(), b.Shards())
	}
	after := b.TableKeySets()["alpha"]
	if len(after) != len(before) {
		t.Fatalf("reshard lost keys: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("keyset changed at %d: %d vs %d", i, after[i], before[i])
		}
	}
	for k, v := range want {
		shard := int(k) % 2
		got, ok := b.Get(shard, 0, k)
		if !ok || got != v {
			t.Fatalf("after reshard Get(%d) = %d, %v; want %d on shard %d", k, got, ok, v, shard)
		}
	}
	// The compacted value logs must survive a crash drill too.
	b.CrashAndRecover(0)
	if got := b.TableKeySets()["alpha"]; len(got) != len(before) {
		t.Fatalf("post-reshard recovery lost keys: %d, want %d", len(got), len(before))
	}
}

func TestExecutorShipping(t *testing.T) {
	b := testHash(t, 4)
	execs := NewExecutors(b)
	done := make(chan map[schema.Key]uint64, len(execs))
	stop := make(chan struct{})
	for _, ex := range execs {
		go func(ex *Executor) {
			got := make(map[schema.Key]uint64)
			// Each executor writes 100 keys spread over ALL shards (so
			// most ops are shipped), then reads them back.
			base := schema.Key(ex.ID() * 1000)
			txn := uint64(ex.ID() + 1)
			for i := 0; i < 100; i++ {
				k := base + schema.Key(i)
				shard := int(k) % b.Shards()
				ex.Put(shard, 0, k, txn, uint64(k)*2)
				ex.Poll()
			}
			// The keys went to every island, so each one logs the commit.
			for island := range execs {
				ex.CommitRemote(island, txn, 0)
			}
			for i := 0; i < 100; i++ {
				k := base + schema.Key(i)
				shard := int(k) % b.Shards()
				if v, ok := ex.Get(shard, 0, k); ok {
					got[k] = v
				}
				ex.Poll()
			}
			done <- got
			// Keep serving slower peers until everyone is finished.
			ex.Serve(stop)
		}(ex)
	}
	merged := make(map[schema.Key]uint64)
	for range execs {
		for k, v := range <-done {
			merged[k] = v
		}
	}
	close(stop)
	if len(merged) != 400 {
		t.Fatalf("read back %d keys, want 400", len(merged))
	}
	for k, v := range merged {
		if v != uint64(k)*2 {
			t.Fatalf("key %d = %d, want %d", k, v, uint64(k)*2)
		}
	}
	ships := int64(0)
	for _, ex := range execs {
		ships += ex.Stats.Ships
	}
	if ships == 0 {
		t.Fatal("expected cross-island ships, saw none")
	}
	for island := range execs {
		commits := 0
		for _, r := range b.Log(island).Records() {
			if r.Type == wal.Commit {
				commits++
			}
		}
		if commits != len(execs) {
			t.Errorf("island %d logged %d commit records, want one per executor (%d)", island, commits, len(execs))
		}
	}
}

// TestExecutorIncrementAtomic has every executor increment the same few keys,
// spread over all shards so most increments are shipped: the read-modify-write
// runs on the owner as one operation, so no increment may be lost, a missing
// key counts from zero, and each remote increment is exactly one ship.
func TestExecutorIncrementAtomic(t *testing.T) {
	b := testHash(t, 4)
	execs := NewExecutors(b)
	const keys, rounds = 8, 500
	stop := make(chan struct{})
	var work, all sync.WaitGroup
	for _, ex := range execs {
		work.Add(1)
		all.Add(1)
		go func(ex *Executor) {
			defer all.Done()
			txn := uint64(ex.ID() + 1)
			for i := 0; i < rounds; i++ {
				for k := schema.Key(0); k < keys; k++ {
					ex.Increment(int(k)%b.Shards(), 0, k, txn)
				}
				ex.Poll()
			}
			ex.CommitLocal(txn, 0)
			work.Done()
			ex.Serve(stop)
		}(ex)
	}
	work.Wait()
	close(stop)
	all.Wait()
	for k := schema.Key(0); k < keys; k++ {
		if v, _ := b.Get(int(k)%b.Shards(), 0, k); v != uint64(len(execs)*rounds) {
			t.Errorf("key %d = %d after %d increments", k, v, len(execs)*rounds)
		}
	}
	var ships, serves int64
	for _, ex := range execs {
		ships += ex.Stats.Ships
		serves += ex.Stats.Serves
	}
	// Each executor owns keys/len(execs) of the keys and ships the rest.
	if want := int64(len(execs) * rounds * (keys - keys/len(execs))); ships != want || serves != want {
		t.Errorf("%d ships and %d serves, want %d of each (one per remote increment)", ships, serves, want)
	}
}

// TestExecutorBatchInOrderOnce stages a transaction's operations for two
// remote owners and ships them: each owner must see one message, apply its
// operations in staging order exactly once (the value log is the witness) and
// append the commit record right behind them.
func TestExecutorBatchInOrderOnce(t *testing.T) {
	b := testHashLog(t, 4, wal.Config{GroupSize: 1}) // no coalescer: the log keeps every record in append order
	execs := NewExecutors(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ex := range execs[1:] {
		wg.Add(1)
		go func(ex *Executor) {
			defer wg.Done()
			ex.Serve(stop)
		}(ex)
	}
	const txn = 9
	ex := execs[0]
	ex.Stage(OpPut, 1, 0, 10, txn, 5)       // insert 10 = 5
	ex.Stage(OpIncrement, 2, 0, 20, txn, 0) // other owner, interleaved: 20 = 1
	ex.Stage(OpIncrement, 1, 0, 10, txn, 0) // 10 = 6
	ex.Stage(OpPut, 1, 0, 11, txn, 7)       // insert 11 = 7
	ex.Stage(OpDelete, 1, 0, 11, txn, 0)    // and gone again
	ex.Stage(OpIncrement, 1, 0, 10, txn, 0) // 10 = 7
	ex.Stage(OpIncrement, 0, 0, 30, txn, 0) // own shard: applied at once, never shipped
	if v, _ := b.Get(0, 0, 30); v != 1 {
		t.Errorf("operation staged on the executor's own shard not applied at once: key 30 = %d", v)
	}
	if _, ok := b.Get(1, 0, 10); ok {
		t.Error("a staged remote operation ran before ShipStaged")
	}
	ex.CommitLocal(txn, 0)
	ex.ShipStaged(txn, 0)
	ex.ShipStaged(txn, 0) // nothing staged any more: ships nothing
	close(stop)
	wg.Wait()

	if v, _ := b.Get(1, 0, 10); v != 7 {
		t.Errorf("key 10 = %d after put 5 and two increments, want 7", v)
	}
	if _, ok := b.Get(1, 0, 11); ok {
		t.Error("key 11 survived its put-then-delete")
	}
	if v, _ := b.Get(2, 0, 20); v != 1 {
		t.Errorf("key 20 = %d after one increment, want 1", v)
	}
	type rec struct {
		typ wal.RecordType
		key schema.Key
	}
	wantLogs := map[int][]rec{
		1: {{wal.Insert, 10}, {wal.Update, 10}, {wal.Insert, 11}, {wal.Delete, 11}, {wal.Update, 10}, {wal.Commit, 0}},
		2: {{wal.Insert, 20}, {wal.Commit, 0}},
		3: nil,
	}
	for island, want := range wantLogs {
		var got []rec
		for _, r := range b.Log(island).Records() {
			if r.Txn != txn {
				t.Errorf("island %d logged a record of transaction %d", island, r.Txn)
			}
			got = append(got, rec{r.Type, r.Key})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("island %d log = %v, want %v", island, got, want)
		}
	}
	if st := ex.Stats; st.Ships != 2 || st.ShippedOps != 8 {
		t.Errorf("%d ships carrying %d operations, want 2 carrying 8 (6 operations + 2 commit records)", st.Ships, st.ShippedOps)
	}
	if s1, s2, s3 := execs[1].Stats.Serves, execs[2].Stats.Serves, execs[3].Stats.Serves; s1 != 1 || s2 != 1 || s3 != 0 {
		t.Errorf("owners served %d/%d/%d messages, want 1/1/0", s1, s2, s3)
	}
}

// TestExecutorBatchReadOnlyNoCommit: an owner that only reads for a
// transaction is no write participant, so its batch carries no commit record
// and leaves the owner's value log untouched; the reads still come back.
func TestExecutorBatchReadOnlyNoCommit(t *testing.T) {
	b := testHash(t, 2)
	execs := NewExecutors(b)
	b.Load(1, 0, 41, 99)
	b.FinishLoad(0)
	before := b.Log(1).Stats()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		execs[1].Serve(stop)
	}()
	ex := execs[0]
	ex.Stage(OpGet, 1, 0, 41, 3, 0)
	ex.Stage(OpGet, 1, 0, 42, 3, 0)
	hit, miss := &ex.staged[1].ops[0], &ex.staged[1].ops[1]
	ex.ShipStaged(3, 0)
	close(stop)
	<-done
	if !hit.ok || hit.val != 99 || miss.ok {
		t.Errorf("batched reads returned (%d, %v) and (%d, %v), want (99, true) and a miss", hit.val, hit.ok, miss.val, miss.ok)
	}
	if after := b.Log(1).Stats(); after != before {
		t.Errorf("a read-only batch changed the owner's log: %+v -> %+v", before, after)
	}
	if st := ex.Stats; st.Ships != 1 || st.ShippedOps != 2 {
		t.Errorf("%d ships carrying %d operations, want 1 carrying 2", st.Ships, st.ShippedOps)
	}
}

// TestExecutorBatchesCrossing has every executor batch at every other one,
// transaction after transaction, without ever polling: progress then rests
// entirely on ship serving the inbox while it waits. It must finish — on one
// P too, which the GOMAXPROCS=1 pass of `make test` checks — and conserve
// every increment.
func TestExecutorBatchesCrossing(t *testing.T) {
	b := testHash(t, 4)
	execs := NewExecutors(b)
	const txns, perOwner = 400, 3
	stop := make(chan struct{})
	var work, all sync.WaitGroup
	for _, ex := range execs {
		work.Add(1)
		all.Add(1)
		go func(ex *Executor) {
			defer all.Done()
			for n := 0; n < txns; n++ {
				txn := uint64(n*len(execs) + ex.ID() + 1)
				for i := 0; i < perOwner; i++ {
					for shard := range execs {
						ex.Stage(OpIncrement, shard, 0, schema.Key(shard), txn, 0)
					}
				}
				ex.CommitLocal(txn, int64(n))
				ex.ShipStaged(txn, int64(n))
			}
			work.Done()
			ex.Serve(stop)
		}(ex)
	}
	finished := make(chan struct{})
	go func() {
		work.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("executors batching at each other did not finish in 60 s")
	}
	close(stop)
	all.Wait()
	for shard := range execs {
		if v, _ := b.Get(shard, 0, schema.Key(shard)); v != uint64(len(execs)*txns*perOwner) {
			t.Errorf("shard %d counter = %d, want %d", shard, v, len(execs)*txns*perOwner)
		}
	}
	var ships, ops, serves int64
	for _, ex := range execs {
		ships += ex.Stats.Ships
		ops += ex.Stats.ShippedOps
		serves += ex.Stats.Serves
	}
	remote := int64(len(execs) * (len(execs) - 1) * txns)
	if ships != remote || serves != remote || ops != remote*(perOwner+1) {
		t.Errorf("%d ships, %d serves, %d carried operations; want %d, %d, %d",
			ships, serves, ops, remote, remote, remote*(perOwner+1))
	}
}

// BenchmarkExecutorShip measures one message's round trip between two
// executors: to an owner idle in Serve, and to an owner busy with its own
// transactions (ten local increments and a commit) that polls its inbox
// between them, which is how the engine's work loop serves peers. The plain
// cases ship one Get; the batch5 cases ship what a multisite transaction sends
// one participant — five increments and the commit record — and also report
// the round trip per carried operation.
func BenchmarkExecutorShip(b *testing.B) {
	owners := []struct {
		name string
		run  func(owner *Executor, stop <-chan struct{})
	}{
		{"idle-owner", func(owner *Executor, stop <-chan struct{}) { owner.Serve(stop) }},
		{"busy-owner", func(owner *Executor, stop <-chan struct{}) {
			for txn := uint64(1); ; txn++ {
				select {
				case <-stop:
					return
				default:
				}
				for k := schema.Key(0); k < 10; k++ {
					owner.Increment(1, 0, 2*k+1, txn)
				}
				owner.CommitLocal(txn, 0)
				owner.Poll()
			}
		}},
	}
	messages := []struct {
		prefix  string
		carried int
		ship    func(b *testing.B, ex *Executor, i int)
	}{
		{"", 1, func(b *testing.B, ex *Executor, _ int) {
			if _, ok := ex.Get(1, 0, 1); !ok {
				b.Fatal("shipped Get missed a loaded key")
			}
		}},
		{"batch5/", 6, func(_ *testing.B, ex *Executor, i int) {
			txn := uint64(1)<<32 + uint64(i)
			for k := schema.Key(0); k < 5; k++ {
				ex.Stage(OpIncrement, 1, 0, 2*k+1, txn, 0)
			}
			ex.ShipStaged(txn, 0)
		}},
	}
	for _, m := range messages {
		for _, o := range owners {
			b.Run(m.prefix+o.name, func(b *testing.B) {
				h := testHashLog(b, 2, wal.DefaultConfig())
				execs := NewExecutors(h)
				h.Load(1, 0, 1, 1)
				h.FinishLoad(0)
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					o.run(execs[1], stop)
				}()
				m.ship(b, execs[0], 0) // the owner is up and the staging buffer grown before the clock starts
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ship(b, execs[0], i+1)
				}
				b.StopTimer()
				if m.carried > 1 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.carried), "ns/carried-op")
				}
				close(stop)
				wg.Wait()
			})
		}
	}
}

// BenchmarkHashCommit is the executed write path of one island with nobody
// else on the machine: one Increment and its transaction's Commit on an
// unpriced value log (the engine's default log configuration). Steady state
// must not allocate.
func BenchmarkHashCommit(b *testing.B) {
	h := testHashLog(b, 1, wal.DefaultConfig())
	for k := schema.Key(0); k < 1024; k++ {
		h.Load(0, 0, k, uint64(k))
	}
	h.FinishLoad(0)
	txn := func(i int) {
		h.Increment(0, 0, schema.Key(i&1023), uint64(i))
		h.Commit(0, uint64(i), vclock.Nanos(i))
	}
	for i := 1; i <= 8192; i++ { // fill the retained-record ring
		txn(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() { txn(9000) }); allocs != 0 {
		b.Fatalf("Increment+Commit allocates %.1f times per transaction, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn(10_000 + i)
	}
}

func vnanos(i int) vclock.Nanos { return vclock.Nanos(i) * 1000 }

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 32: 32, 33: 64, 40: 64}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestShardOfStable(t *testing.T) {
	b := testHash(t, 8)
	for i := 0; i < 100; i++ {
		k := schema.Key(i)
		s1 := b.ShardOf(0, k)
		s2 := b.ShardOf(0, k)
		if s1 != s2 {
			t.Fatalf("ShardOf unstable for key %d", k)
		}
		if s1 < 0 || s1 >= b.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range", k, s1)
		}
		if b.ShardOf(0, k) == b.ShardOf(1, k) && i == 0 {
			// Tables may collide on individual keys; just ensure the
			// distributions differ somewhere.
			continue
		}
	}
}
