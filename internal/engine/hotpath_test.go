package engine

import (
	"testing"

	"atrapos/internal/lock"
	"atrapos/internal/topology"
	"atrapos/internal/workload"
)

// TestReleaseLocalDedupChargesRecordedOwner is the regression test for the
// release-dedup fix: when the same (table, partition) appears in the locked
// list under two different recorded owners (a socket failure redirected
// ownership mid-transaction), the partition is released exactly once and the
// release cost is charged to the most recently recorded owner — not to
// whichever entry happened to come first.
func TestReleaseLocalDedupChargesRecordedOwner(t *testing.T) {
	wl := workload.SingleRowRead(100)
	e := MustNew(Config{Design: PLP, Workload: wl, Topology: smallTopology()})
	lm := e.snap.locks[e.tableIdx["mbr"]][0]
	const txnID = lock.TxnID(7)
	if _, err := lm.Acquire(0, txnID, lock.RowResource("mbr", 1), lock.X); err != nil {
		t.Fatal(err)
	}
	locked := []lockedPartition{
		{table: "mbr", idx: 0, lm: lm, core: 1, sock: 0},
		{table: "mbr", idx: 0, lm: lm, core: 9, sock: 2}, // re-locked from another socket
	}
	e.resetAccounts()
	e.releaseLocal(txnID, locked)
	if n := lm.Table().Len(); n != 0 {
		t.Errorf("expected all locks released, %d remain", n)
	}
	if got := e.accounts[1].busy; got != 0 {
		t.Errorf("first recorded core was charged %v; the release belongs to the current owner", got)
	}
	if got := e.accounts[9].busy; got == 0 {
		t.Error("most recently recorded owner core was not charged the release cost")
	}
}

// TestEffectiveCoreWrapsPastDeadSockets covers the socket-failure fallback:
// the redirect must skip any number of consecutive dead sockets, wrap around
// the socket ring, and keep the core's local index.
func TestEffectiveCoreWrapsPastDeadSockets(t *testing.T) {
	top := smallTopology() // 4 sockets x 4 cores
	e := MustNew(Config{Design: PLP, Workload: workload.SingleRowRead(100), Topology: top})

	coreOn := func(s topology.SocketID, local int) topology.CoreID {
		return top.CoresOn(s)[local].ID
	}
	if got := e.effectiveCore(coreOn(1, 2)); got != coreOn(1, 2) {
		t.Errorf("alive socket should not redirect, got core %d", got)
	}
	// Fail sockets 1 and 2: work owned by socket 1 must skip dead socket 2
	// and land on socket 3, same local index.
	for _, s := range []topology.SocketID{1, 2} {
		if err := top.FailSocket(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := e.effectiveCore(coreOn(1, 2)), coreOn(3, 2); got != want {
		t.Errorf("redirect past one dead socket: got core %d, want %d", got, want)
	}
	// Fail socket 3 as well: socket 2's work wraps past 3 to socket 0.
	if err := top.FailSocket(3); err != nil {
		t.Fatal(err)
	}
	if got, want := e.effectiveCore(coreOn(2, 1)), coreOn(0, 1); got != want {
		t.Errorf("wrap-around redirect: got core %d, want %d", got, want)
	}
	// All sockets dead: the core is returned unchanged (no alive fallback).
	if err := top.FailSocket(0); err != nil {
		t.Fatal(err)
	}
	if got := e.effectiveCore(coreOn(2, 1)); got != coreOn(2, 1) {
		t.Errorf("with no alive socket the core should be unchanged, got %d", got)
	}
}

// TestSplitMixSeedDecorrelation checks that reseeding with consecutive values
// produces decorrelated streams (the avalanche step), which the generator
// relies on so neighbouring transactions do not replay each other's keys.
func TestSplitMixSeedDecorrelation(t *testing.T) {
	var a, b splitMix
	a.seed(100)
	b.seed(101)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("consecutive seeds produced %d identical outputs of 64", same)
	}
	// Reseeding with the same value replays the same stream.
	a.seed(100)
	b.seed(100)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must replay the same stream")
		}
	}
}

// TestAliveCoreCacheFollowsEpoch verifies that the engine's cached alive-core
// list is invalidated by socket failures and restorations mid-run.
func TestAliveCoreCacheFollowsEpoch(t *testing.T) {
	top := smallTopology()
	e := MustNew(Config{Design: PLP, Workload: workload.SingleRowRead(100), Topology: top})
	if got := len(e.aliveCores()); got != 16 {
		t.Fatalf("expected 16 alive cores, got %d", got)
	}
	if err := top.FailSocket(2); err != nil {
		t.Fatal(err)
	}
	if got := len(e.aliveCores()); got != 12 {
		t.Errorf("after failing a socket the cache should refresh: got %d cores, want 12", got)
	}
	if err := top.RestoreSocket(2); err != nil {
		t.Fatal(err)
	}
	if got := len(e.aliveCores()); got != 16 {
		t.Errorf("after restoring the socket: got %d cores, want 16", got)
	}
}

// TestVirtualNowHighWaterMark checks the two-level virtual clock: the cheap
// per-transaction view lags monotonically behind the exact scan and catches
// up when the run loop notes a core or an exact recomputation runs.
func TestVirtualNowHighWaterMark(t *testing.T) {
	e := MustNew(Config{Design: PLP, Workload: workload.SingleRowRead(100), Topology: smallTopology()})
	e.resetAccounts()
	e.charge(5, 1, 1000)
	if now := e.virtualNow(); now != 0 {
		t.Errorf("high-water mark should lag until noted, got %v", now)
	}
	e.noteTime(5)
	if now := e.virtualNow(); now != 1000 {
		t.Errorf("after noteTime the mark should be 1000, got %v", now)
	}
	e.charge(6, 1, 2500)
	if now := e.virtualNowExact(); now != 2500 {
		t.Errorf("exact recomputation should see 2500, got %v", now)
	}
	if now := e.virtualNow(); now != 2500 {
		t.Errorf("exact recomputation should fold into the mark, got %v", now)
	}
}
