package backend

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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
	return testHashLog(t, islands, wal.Config{CoalesceRecords: 8})
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

// islandOf routes a test key to an island the way a placement with
// key-modulo partitions would.
func islandOf(k schema.Key, islands int) int { return int(k) % islands }

func TestHashBackendPutGetDelete(t *testing.T) {
	b := testHash(t, 3)
	for i := 0; i < 1000; i++ {
		k := schema.Key(i * 7)
		b.Put(islandOf(k, 3), 0, k, 1, uint64(i))
	}
	for i := 0; i < 1000; i++ {
		k := schema.Key(i * 7)
		v, ok := b.Get(islandOf(k, 3), 0, k)
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	// Other table stays empty.
	if _, ok := b.Get(islandOf(7, 3), 1, 7); ok {
		t.Fatal("key leaked across tables")
	}
	// Overwrite then delete.
	k := schema.Key(7)
	b.Put(islandOf(k, 3), 0, k, 2, 999)
	if v, _ := b.Get(islandOf(k, 3), 0, k); v != 999 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if !b.Delete(islandOf(k, 3), 0, k, 3) {
		t.Fatal("Delete of present key returned false")
	}
	if _, ok := b.Get(islandOf(k, 3), 0, k); ok {
		t.Fatal("deleted key still readable")
	}
	if b.Delete(islandOf(k, 3), 0, k, 4) {
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
		b.Load(islandOf(k, 2), 0, k, uint64(i))
		shadow[0][k] = true
	}
	b.FinishLoad(0)
	// Committed transactions: inserts, overwrites, deletes across both tables.
	txn := uint64(1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ti := rng.Intn(2)
		k := schema.Key(rng.Intn(128))
		island := islandOf(k, 2)
		if rng.Intn(4) == 0 {
			if b.Delete(island, ti, k, txn) {
				delete(shadow[ti], k)
			}
		} else {
			b.Put(island, ti, k, txn, uint64(i))
			shadow[ti][k] = true
		}
		b.Commit(island, txn, vnanos(i))
		txn++
	}
	// A loser: writes with no commit record must not survive recovery.
	loserKey := schema.Key(5000)
	b.Put(islandOf(loserKey, 2), 0, loserKey, txn, 1)

	if err := b.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}

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
	if _, ok := b.Get(islandOf(loserKey, 2), 0, loserKey); ok {
		t.Fatal("uncommitted write survived recovery")
	}
}

// TestHashBackendCrashRecoverRefusesPartialLog: value logs on the default
// config retain no records, so a drill must fail, naming the island, and
// keep every index as it was. Island 0's log takes more than 4,096 records,
// more than a bounded ring would have held.
func TestHashBackendCrashRecoverRefusesPartialLog(t *testing.T) {
	b := testHashLog(t, 2, wal.DefaultConfig())
	for txn := uint64(1); txn <= 2500; txn++ {
		k := schema.Key(2 * (txn % 300))
		b.Put(0, 0, k, txn, txn)
		b.Commit(0, txn, vnanos(int(txn)))
	}
	if n := b.Log(0).Stats().PhysicalRecords; n <= 4096 {
		t.Fatalf("island 0's log took %d records, want more than 4096", n)
	}
	before := b.TableKeySets()
	if err := b.CrashAndRecover(); err == nil || !strings.Contains(err.Error(), "island 0's value log discarded") {
		t.Fatalf("drill on logs that kept no records: err = %v", err)
	}
	if after := b.TableKeySets(); !reflect.DeepEqual(before, after) {
		t.Errorf("a refused drill changed the indexes: %d keys before, %d after", len(before["alpha"]), len(after["alpha"]))
	}
}

// TestExecutorShipping: every executor writes keys spread over all islands
// in one transaction and reads them back. The writes travel in the
// transaction's batches; every island then holds each executor's commit
// record.
func TestExecutorShipping(t *testing.T) {
	b := testHash(t, 4)
	execs := NewExecutors(b)
	done := make(chan map[schema.Key]uint64, len(execs))
	stop := make(chan struct{})
	for _, ex := range execs {
		go func(ex *Executor) {
			got := make(map[schema.Key]uint64)
			base := schema.Key(ex.ID() * 1000)
			txn := uint64(ex.ID() + 1)
			for i := 0; i < 100; i++ {
				k := base + schema.Key(i)
				ex.Stage(OpPut, islandOf(k, len(execs)), 0, k, txn, uint64(k)*2)
			}
			ex.CommitLocal(txn)
			ex.ShipStaged(txn)
			for i := 0; i < 100; i++ {
				k := base + schema.Key(i)
				if v, ok := ex.Get(islandOf(k, len(execs)), 0, k); ok {
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
	for _, ex := range execs {
		// One batch per remote island, then one Get per remote key.
		if want := int64(len(execs)-1) + 75; ex.Stats.Ships != want {
			t.Errorf("executor %d shipped %d messages, want %d", ex.ID(), ex.Stats.Ships, want)
		}
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
// spread over all islands, one transaction per round, polling its inbox
// between rounds: each increment runs on the owner as one operation, so none
// may be lost, a missing key counts from zero, and each (round, remote owner)
// is exactly one ship.
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
			for i := 0; i < rounds; i++ {
				txn := uint64(i*len(execs) + ex.ID() + 1)
				for k := schema.Key(0); k < keys; k++ {
					ex.Stage(OpIncrement, islandOf(k, len(execs)), 0, k, txn, 0)
				}
				ex.CommitLocal(txn)
				ex.ShipStaged(txn)
				ex.Poll()
			}
			work.Done()
			ex.Serve(stop)
		}(ex)
	}
	work.Wait()
	close(stop)
	all.Wait()
	for k := schema.Key(0); k < keys; k++ {
		if v, _ := b.Get(islandOf(k, len(execs)), 0, k); v != uint64(len(execs)*rounds) {
			t.Errorf("key %d = %d after %d increments", k, v, len(execs)*rounds)
		}
	}
	var ships, serves int64
	for _, ex := range execs {
		ships += ex.Stats.Ships
		serves += ex.Stats.Serves
	}
	if want := int64(len(execs) * rounds * (len(execs) - 1)); ships != want || serves != want {
		t.Errorf("%d ships and %d serves, want %d of each (one per round and remote owner)", ships, serves, want)
	}
}

// TestExecutorBatchInOrderOnce stages a transaction's operations for two
// remote owners and ships them: each owner must see one message, apply its
// operations in staging order exactly once (the value log is the witness) and
// append the commit record right behind them.
func TestExecutorBatchInOrderOnce(t *testing.T) {
	b := testHashLog(t, 4, wal.Config{}) // no coalescer: the log keeps every record in append order
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
	ex.CommitLocal(txn)
	ex.ShipStaged(txn)
	ex.ShipStaged(txn) // nothing staged any more: ships nothing
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
	ex.ShipStaged(3)
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
				ex.CommitLocal(txn)
				ex.ShipStaged(txn)
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

// TestExecutorShipParksBehindSilentOwner covers the blocking end of ship's
// wait: the owner leaves the request in its inbox for at least 10 ms and
// 4×shipSpins of its own yields — busy with local transactions, never
// polling — so the sender exhausts its bounded spin and parks in the select.
// When the owner finally polls, the reply must wake the sender, the batch
// must have been applied once, and the one ship must be the one serve.
func TestExecutorShipParksBehindSilentOwner(t *testing.T) {
	b := testHash(t, 2)
	execs := NewExecutors(b)
	sender, owner := execs[0], execs[1]
	const silent = 10 * time.Millisecond
	var busyTxns int
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		for len(owner.in) == 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		for n := 0; n < 4*shipSpins || time.Since(t0) < silent; n++ {
			txn := uint64(1000 + n)
			owner.Stage(OpIncrement, 1, 0, 99, txn, 0)
			owner.CommitLocal(txn)
			busyTxns++
			runtime.Gosched()
		}
		owner.Poll()
	}()
	shipped := make(chan struct{})
	go func() {
		defer close(shipped)
		for k := schema.Key(1); k <= 5; k++ {
			sender.Stage(OpIncrement, 1, 0, k, 7, 0)
		}
		sender.CommitLocal(7)
		sender.ShipStaged(7)
	}()
	select {
	case <-shipped:
	case <-time.After(60 * time.Second):
		t.Fatal("a ship to an owner that polled after 10 ms did not complete in 60 s")
	}
	<-ownerDone
	if d := time.Duration(sender.Stats.ShipNs); d < silent {
		t.Errorf("ship waited %v for an owner silent for %v", d, silent)
	}
	for k := schema.Key(1); k <= 5; k++ {
		if v, _ := b.Get(1, 0, k); v != 1 {
			t.Errorf("key %d = %d after one shipped increment", k, v)
		}
	}
	if v, _ := b.Get(1, 0, 99); v != uint64(busyTxns) {
		t.Errorf("owner's own counter = %d after %d local increments", v, busyTxns)
	}
	if ships, serves := sender.Stats.Ships, owner.Stats.Serves; ships != 1 || serves != ships {
		t.Errorf("%d ships and %d serves, want 1 of each", ships, serves)
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
					owner.Stage(OpIncrement, 1, 0, 2*k+1, txn, 0)
				}
				owner.CommitLocal(txn)
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
			ex.ShipStaged(txn)
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
