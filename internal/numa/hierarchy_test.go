package numa

import (
	"testing"

	"atrapos/internal/topology"
)

// TestFlatProfileCostEquivalence is the cost-model regression gate of the
// hierarchy refactor: on flat machine profiles (one die per socket) every
// core-granular cost function must return exactly what its socket-level
// counterpart returned before the refactor. The socket-level functions are
// additionally pinned to golden pre-refactor values on the paper's topology,
// so a change to either formulation fails loudly.
func TestFlatProfileCostEquivalence(t *testing.T) {
	d := NewDomain(topology.Default()) // the paper's 8x10 twisted cube
	top := d.Top

	// Golden pre-refactor values on the twisted cube: Distance(0,1)=1,
	// Distance(1,2)=2 (two bits apart, not opposite).
	if got := d.AtomicCost(0, 1); got != 60+320 {
		t.Errorf("AtomicCost(0,1) = %d, want 380", got)
	}
	if got := d.AtomicCost(1, 2); got != 60+2*320 {
		t.Errorf("AtomicCost(1,2) = %d, want 700", got)
	}
	if got := d.AccessCost(1, 2); got != 20+2*320 {
		t.Errorf("AccessCost(1,2) = %d, want 660", got)
	}
	if got := d.DRAMCost(1, 2); got != 90+2*60 {
		t.Errorf("DRAMCost(1,2) = %d, want 210", got)
	}
	// Messages are priced per core pair only; cores 10-19 are socket 1, 20-29
	// socket 2, and one die per socket makes the pair cost the socket cost.
	if got := d.CoreMessageCost(10, 20); got != 350+2*900 {
		t.Errorf("CoreMessageCost(10,20) = %d, want 2150", got)
	}
	if got := d.CoreMessageCost(10, 11); got != 350 {
		t.Errorf("CoreMessageCost(10,11) = %d, want 350", got)
	}
	// SyncPointCost golden value: sockets {0,1,2}, pairwise distances
	// 1 (0-1), 1 (0-2), 2 (1-2) -> avg 4/3; (3-1) * (4/3 * 88 * 2) = 468.
	if got := d.SyncPointCost([]topology.SocketID{0, 1, 2}, 88); got != 468 {
		t.Errorf("SyncPointCost({0,1,2}, 88) = %d, want 468", got)
	}

	// Core-granular equivalence across a spread of core pairs.
	pairs := [][2]topology.CoreID{{0, 0}, {0, 5}, {0, 10}, {3, 27}, {11, 79}, {40, 41}, {79, 0}}
	for _, p := range pairs {
		a, b := p[0], p[1]
		sa, sb := top.SocketOf(a), top.SocketOf(b)
		if got, want := d.CoreAtomicCost(a, b), d.AtomicCost(sa, sb); got != want {
			t.Errorf("CoreAtomicCost(%d,%d) = %d, want socket-level %d", a, b, got, want)
		}
		if got, want := d.CoreDRAMCost(a, sb), d.DRAMCost(sa, sb); got != want {
			t.Errorf("CoreDRAMCost(%d,%d) = %d, want socket-level %d", a, sb, got, want)
		}
	}

	// Sync points: the core-granular formula must equal the socket-level one
	// when every participant list is translated core -> socket.
	coreSets := [][]topology.CoreID{
		{0, 10, 20},
		{0, 1, 2},          // one socket: no rendezvous cost
		{5, 15, 25, 35, 5}, // duplicates collapse
		{0, 79, 40, 12},
	}
	for _, cores := range coreSets {
		socks := make([]topology.SocketID, len(cores))
		for i, c := range cores {
			socks[i] = top.SocketOf(c)
		}
		if got, want := d.SyncPointCostAt(cores, 88), d.SyncPointCost(socks, 88); got != want {
			t.Errorf("SyncPointCostAt(%v) = %d, want socket-level %d", cores, got, want)
		}
	}
}

// TestHierarchicalCostsOrdering checks the sub-NUMA pricing on a chiplet
// machine: same-die < same-socket-cross-die < cross-socket, for transfers,
// messages and DRAM.
func TestHierarchicalCostsOrdering(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 4})
	d := NewDomain(top)
	// Cores 0,1 share die 0; core 2 is on die 1 (same socket); core 8 is on
	// socket 1.
	sameDie := d.CoreAtomicCost(0, 1)
	crossDie := d.CoreAtomicCost(0, 2)
	crossSocket := d.CoreAtomicCost(0, 8)
	if !(sameDie < crossDie && crossDie < crossSocket) {
		t.Errorf("atomic costs should order same-die %d < cross-die %d < cross-socket %d", sameDie, crossDie, crossSocket)
	}
	if sameDie != 60 || crossDie != 60+110 || crossSocket != 60+320 {
		t.Errorf("atomic costs = %d, %d, %d; want 60, 170, 380", sameDie, crossDie, crossSocket)
	}
	if got := d.CoreMessageCost(0, 2); got != 350+300 {
		t.Errorf("cross-die message = %d, want 650", got)
	}
	if got := d.CoreMessageCost(0, 8); got != 350+900 {
		t.Errorf("cross-socket message = %d, want 1250", got)
	}
	// DRAM: the controller lives on the socket's first die, so die-0 cores
	// access local memory cheaper than die-1 cores.
	die0 := d.CoreDRAMCost(0, 0)
	die1 := d.CoreDRAMCost(2, 0)
	if !(die0 < die1) {
		t.Errorf("DRAM from the controller die (%d) should undercut other dies (%d)", die0, die1)
	}
	if die1 != 90+25 {
		t.Errorf("cross-die local DRAM = %d, want 115", die1)
	}
	// Sync points: a rendezvous across two dies of one socket is cheaper
	// than the same rendezvous across two sockets.
	intraSocket := d.SyncPointCostAt([]topology.CoreID{0, 2}, 88)
	interSocket := d.SyncPointCostAt([]topology.CoreID{0, 8}, 88)
	if intraSocket == 0 || interSocket == 0 {
		t.Fatal("two-island rendezvous should cost something")
	}
	if intraSocket >= interSocket {
		t.Errorf("intra-socket rendezvous (%d) should undercut inter-socket (%d)", intraSocket, interSocket)
	}
}

// TestSyncPointCostDropsAfterSocketFailure is the satellite regression test:
// failing a participant's socket must shrink the synchronization-point cost,
// because the dead socket no longer takes part in the rendezvous (its
// partitions having been redirected), and the machine-wide average remote
// distance it feeds also excludes it.
func TestSyncPointCostDropsAfterSocketFailure(t *testing.T) {
	// Socket 2 is the distant one: 2 hops from everyone.
	top := topology.MustNew(topology.Config{
		Sockets:        3,
		CoresPerSocket: 2,
		Distance:       [][]int{{0, 1, 2}, {1, 0, 2}, {2, 2, 0}},
	})
	d := NewDomain(top)
	participants := []topology.SocketID{0, 1, 2}
	before := d.SyncPointCost(participants, 88)
	// Three sockets, avg distance (1+2+2)/3 -> cost (3-1)*(5/3*88*2) = 586.
	if before != 586 {
		t.Fatalf("pre-failure sync cost = %d, want 586", before)
	}
	if err := top.FailSocket(2); err != nil {
		t.Fatal(err)
	}
	after := d.SyncPointCost(participants, 88)
	if after >= before {
		t.Errorf("sync-point cost should drop after the distant socket fails: before %d, after %d", before, after)
	}
	// Only sockets 0 and 1 remain: (2-1) * (1 * 88 * 2).
	if after != 176 {
		t.Errorf("post-failure sync cost = %d, want 176", after)
	}
	// The core-granular variant agrees (cores 0, 2, 4 live on sockets 0, 1, 2).
	coreAfter := d.SyncPointCostAt([]topology.CoreID{0, 2, 4}, 88)
	if coreAfter != after {
		t.Errorf("core-granular post-failure sync cost = %d, want %d", coreAfter, after)
	}
	// A rendezvous left with one alive participant costs nothing.
	top.FailSocket(1)
	if got := d.SyncPointCost(participants, 88); got != 0 {
		t.Errorf("single-survivor rendezvous should be free, got %d", got)
	}
}
