package numa

import (
	"testing"
	"testing/quick"

	"atrapos/internal/topology"
)

func testDomain(t *testing.T, sockets, cores int) *Domain {
	t.Helper()
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: cores})
	return NewDomain(top)
}

func TestCostsGrowWithDistance(t *testing.T) {
	d := testDomain(t, 8, 2)
	local := d.AtomicCost(0, 0)
	remote := d.AtomicCost(0, 7)
	if local >= remote {
		t.Errorf("local atomic %d should be cheaper than remote %d", local, remote)
	}
	if d.AccessCost(1, 1) >= d.AccessCost(1, 6) {
		t.Error("remote access should cost more than local access")
	}
	if d.DRAMCost(2, 2) >= d.DRAMCost(2, 5) {
		t.Error("remote DRAM should cost more than local DRAM")
	}
	// Two cores per socket: cores 6 and 7 share socket 3, core 8 is on socket 4.
	if d.CoreMessageCost(6, 7) >= d.CoreMessageCost(6, 8) {
		t.Error("cross-socket message should cost more than local message")
	}
}

func TestSyncPointCost(t *testing.T) {
	d := testDomain(t, 8, 2)
	if c := d.SyncPointCost(nil, 100); c != 0 {
		t.Errorf("empty sync point cost = %d, want 0", c)
	}
	if c := d.SyncPointCost([]topology.SocketID{3, 3, 3}, 100); c != 0 {
		t.Errorf("single-socket sync point cost = %d, want 0", c)
	}
	two := d.SyncPointCost([]topology.SocketID{0, 4}, 100)
	if two <= 0 {
		t.Errorf("two-socket sync point cost = %d, want > 0", two)
	}
	four := d.SyncPointCost([]topology.SocketID{0, 2, 4, 6}, 100)
	if four <= two {
		t.Errorf("four-socket cost %d should exceed two-socket cost %d", four, two)
	}
	zeroBytes := d.SyncPointCost([]topology.SocketID{0, 4}, 0)
	if zeroBytes != 0 {
		t.Errorf("zero-byte sync point cost = %d, want 0", zeroBytes)
	}
}

func TestCacheLineOwnershipMigration(t *testing.T) {
	d := testDomain(t, 4, 2)
	cl := NewCacheLine(d, 0)
	if cl.Owner() != 0 {
		t.Fatalf("initial owner = %d, want 0", cl.Owner())
	}
	// Repeated access from the home socket stays cheap.
	c1 := cl.Atomic(0)
	c2 := cl.Atomic(0)
	if c1 != c2 || c1 != LocalAtomic {
		t.Errorf("local atomics cost %d then %d, want %d", c1, c2, LocalAtomic)
	}
	// An access from a remote socket pays the transfer and steals ownership.
	c3 := cl.Atomic(2)
	if c3 <= LocalAtomic {
		t.Errorf("remote atomic cost %d, want > local %d", c3, LocalAtomic)
	}
	if cl.Owner() != 2 {
		t.Errorf("owner after remote access = %d, want 2", cl.Owner())
	}
	// The original socket now pays to take the line back.
	c4 := cl.Atomic(0)
	if c4 <= LocalAtomic {
		t.Errorf("bounce-back atomic cost %d, want > local", c4)
	}
	// The two bounces cost the same: a one-hop transfer plus the contention
	// term of a line two sockets share.
	if c3 != c4 {
		t.Errorf("bounce costs %d then %d, want equal", c3, c4)
	}
	if want := d.AtomicCost(0, 2) + RemoteTransferPerHop; c4 != want {
		t.Errorf("bounce-back atomic cost %d, want transfer %d plus one contender", c4, want)
	}
}

func TestCacheLineTouchVsAtomic(t *testing.T) {
	d := testDomain(t, 2, 1)
	cl := NewCacheLine(d, 0)
	if cl.Touch(0) != LocalAccess {
		t.Error("local touch should cost LocalAccess")
	}
	if cl.Atomic(0) != LocalAtomic {
		t.Error("local atomic should cost LocalAtomic")
	}
}

// TestNilCacheLineIsFree pins the unpriced line: a nil *CacheLine costs
// nothing from any socket and has no state to record into.
func TestNilCacheLineIsFree(t *testing.T) {
	var cl *CacheLine
	for s := topology.SocketID(0); s < 4; s++ {
		if c := cl.Touch(s) + cl.Atomic(s); c != 0 {
			t.Errorf("nil cache line charged %d from socket %d, want 0", c, s)
		}
	}
}

func TestMoreSocketsMakeSharedLineMoreExpensive(t *testing.T) {
	// Average per-access cost of a line hammered by 1 socket vs 8 sockets.
	avgCost := func(sockets int) float64 {
		top := topology.MustNew(topology.Config{Sockets: 8, CoresPerSocket: 1})
		d := NewDomain(top)
		cl := NewCacheLine(d, 0)
		var total Cost
		const rounds = 400
		for i := 0; i < rounds; i++ {
			total += cl.Atomic(topology.SocketID(i % sockets))
		}
		return float64(total) / rounds
	}
	one := avgCost(1)
	eight := avgCost(8)
	if eight <= one*2 {
		t.Errorf("8-socket contention avg %.1f should be much larger than single-socket %.1f", eight, one)
	}
}

func TestStriped(t *testing.T) {
	d := testDomain(t, 4, 2)
	s := NewStriped(d)
	if len(s.lines) != 4 {
		t.Fatalf("striped has %d stripes, want 4", len(s.lines))
	}
	// Local stripes keep accesses socket-local and therefore cheap.
	for sock := 0; sock < 4; sock++ {
		c := s.Local(topology.SocketID(sock)).Atomic(topology.SocketID(sock))
		if c != LocalAtomic {
			t.Errorf("stripe %d local atomic cost %d, want %d", sock, c, LocalAtomic)
		}
	}
	if s.Local(topology.SocketID(-3)) != s.lines[0] {
		t.Error("out-of-range socket should map to stripe 0")
	}
}

func TestCentralVsPartitionedStateLock(t *testing.T) {
	d := testDomain(t, 8, 1)
	central := NewCentralRWLock(d)
	parted := NewPartitionedRWLock(d)

	costOf := func(l StateLock) Cost {
		var total Cost
		for i := 0; i < 200; i++ {
			s := topology.SocketID(i % 8)
			total += l.RLock(s)
			total += l.RUnlock(s)
		}
		return total
	}
	centralCost := costOf(central)
	partedCost := costOf(parted)
	if partedCost*2 >= centralCost {
		t.Errorf("partitioned read lock cost %d should be well below centralized %d", partedCost, centralCost)
	}
}

func TestPartitionedRWLockUnknownSocket(t *testing.T) {
	d := testDomain(t, 2, 1)
	l := NewPartitionedRWLock(d)
	// Unknown sockets fall back to stripe 0 rather than panicking.
	l.RLock(topology.SocketID(42))
	l.RUnlock(topology.SocketID(42))
}

func TestAllocPolicyString(t *testing.T) {
	if AllocLocal.String() != "local" || AllocCentral.String() != "central" || AllocRemote.String() != "remote" {
		t.Error("unexpected AllocPolicy string values")
	}
	if AllocPolicy(42).String() == "" {
		t.Error("unknown policy should still produce a string")
	}
}

func TestPlacementPolicies(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 8, CoresPerSocket: 1})

	local, err := NewPlacement(top, AllocLocal)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if local.NodeFor(topology.SocketID(s)) != topology.SocketID(s) {
			t.Errorf("local placement for socket %d is %d", s, local.NodeFor(topology.SocketID(s)))
		}
	}

	central, err := NewPlacement(top, AllocCentral)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if central.NodeFor(topology.SocketID(s)) != 7 {
			t.Errorf("central placement for socket %d is %d, want 7", s, central.NodeFor(topology.SocketID(s)))
		}
	}

	remote, err := NewPlacement(top, AllocRemote)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if remote.NodeFor(topology.SocketID(s)) == topology.SocketID(s) {
			t.Errorf("remote placement for socket %d landed on itself", s)
		}
	}

	if _, err := NewPlacement(top, AllocPolicy(9)); err == nil {
		t.Error("unknown policy should error")
	}
	if n := local.NodeFor(topology.SocketID(-1)); n != 0 {
		t.Errorf("NodeFor(-1) = %d, want fallback 0", n)
	}
}

func TestPlacementRemoteNeverLocalProperty(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%10) + 2 // 2..11 sockets
		top := topology.MustNew(topology.Config{Sockets: n, CoresPerSocket: 1})
		p, err := NewPlacement(top, AllocRemote)
		if err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			if p.NodeFor(topology.SocketID(s)) == topology.SocketID(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkCacheLine is the host cost of one priced coherence access — every
// lock-table bucket, active-list head, state lock and log tail of a priced
// run goes through it. "one-socket" keeps the line home; "four-sockets"
// bounces it round-robin, the centralized designs' case, with the contention
// window and the traffic counters working. Both must stay at 0 allocs/op.
func BenchmarkCacheLine(b *testing.B) {
	d := NewDomain(topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 2}))
	for _, op := range []struct {
		name   string
		access func(*CacheLine, topology.SocketID) Cost
	}{
		{"touch", (*CacheLine).Touch},
		{"atomic", (*CacheLine).Atomic},
	} {
		for _, sockets := range []int{1, 4} {
			name := op.name + "/one-socket"
			if sockets > 1 {
				name = op.name + "/four-sockets"
			}
			b.Run(name, func(b *testing.B) {
				cl := NewCacheLine(d, 0)
				b.ReportAllocs()
				var total Cost
				for i := 0; i < b.N; i++ {
					total += op.access(cl, topology.SocketID(i%sockets))
				}
				if total <= 0 {
					b.Fatal("a priced access cost nothing")
				}
			})
		}
	}
}
