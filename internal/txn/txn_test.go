package txn

import (
	"testing"

	"atrapos/internal/numa"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
)

func newDomain(sockets, cores int) *numa.Domain {
	top := topology.MustNew(topology.Config{Sockets: sockets, CoresPerSocket: cores})
	return numa.NewDomain(top)
}

// perSocketCoordinator wires one log and one 2PC site per socket of a
// one-core-per-socket domain, so site, socket and home core share an index.
func perSocketCoordinator(d *numa.Domain) (*wal.PartitionedLog, *Coordinator) {
	homes := make([]topology.SocketID, d.Top.Sockets())
	cores := make([]topology.CoreID, len(homes))
	for i := range homes {
		homes[i], cores[i] = topology.SocketID(i), topology.CoreID(i)
	}
	logs := wal.NewPartitionedLogAtDevices(d, homes, wal.DefaultConfig(), nil)
	return logs, NewCoordinatorAt(d, logs, cores)
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Active, Preparing, Committed, Aborted, State(9)} {
		if s.String() == "" {
			t.Errorf("state %d has empty string", s)
		}
	}
}

func TestCentralListAddRemoveSnapshot(t *testing.T) {
	d := newDomain(4, 2)
	l := NewCentralList(d)
	if c := l.Add(0); c <= 0 {
		t.Error("Add should have a positive cost")
	}
	l.Add(3)
	if c := l.Remove(0); c <= 0 {
		t.Error("Remove should have a positive cost")
	}
	l.Remove(3)
}

func TestPartitionedListIsSocketLocal(t *testing.T) {
	d := newDomain(4, 2)
	p := NewPartitionedList(d)
	// Every add/remove from its own socket costs exactly a local atomic.
	for s := 0; s < 4; s++ {
		if c := p.Add(topology.SocketID(s)); c != numa.LocalAtomic {
			t.Errorf("socket %d add cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
		if c := p.Remove(topology.SocketID(s)); c != numa.LocalAtomic {
			t.Errorf("socket %d remove cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
	}
	// Out-of-range sockets fall back to stripe 0.
	if c := p.Add(topology.SocketID(77)); c <= 0 {
		t.Error("fallback add should have a positive cost")
	}
	p.Remove(topology.SocketID(77))
}

func TestPartitionedListSnapshotSeesAllSockets(t *testing.T) {
	d := newDomain(4, 2)
	p := NewPartitionedList(d)
	central := NewCentralList(d)
	// Transactions open on every socket at once: each socket's list is its own
	// stripe, so neither the adds nor the later removes pull a line across
	// sockets, whereas the central list's head moves on every remote add.
	var centralCost numa.Cost
	for s := 0; s < 4; s++ {
		if c := p.Add(topology.SocketID(s)); c != numa.LocalAtomic {
			t.Errorf("socket %d add cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
		centralCost += central.Add(topology.SocketID(s))
	}
	for s := 0; s < 4; s++ {
		if c := p.Remove(topology.SocketID(s)); c != numa.LocalAtomic {
			t.Errorf("socket %d remove cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
	}
	if centralCost <= 4*numa.LocalAtomic {
		t.Errorf("central list adds from 4 sockets cost %d, want more than 4 local atomics (%d)", centralCost, 4*numa.LocalAtomic)
	}
}

func TestCentralVsPartitionedListContention(t *testing.T) {
	d := newDomain(8, 1)
	central := NewCentralList(d)
	parted := NewPartitionedList(d)
	costOf := func(l ActiveList) numa.Cost {
		var total numa.Cost
		for i := 0; i < 400; i++ {
			s := topology.SocketID(i % 8)
			total += l.Add(s)
			total += l.Remove(s)
		}
		return total
	}
	if costOf(parted)*2 >= costOf(central) {
		t.Error("partitioned list should be much cheaper than the central list under multi-socket traffic")
	}
}

func TestManagerLifecycle(t *testing.T) {
	d := newDomain(2, 2)
	m := NewManager(d, NewPartitionedList(d), numa.NewPartitionedRWLock(d))

	tx := new(Txn)
	cost := m.BeginInto(tx, topology.CoreID(3))
	if cost <= 0 {
		t.Error("Begin should have a positive cost")
	}
	if tx.Socket != 1 {
		t.Errorf("transaction bound to socket %d, want 1", tx.Socket)
	}
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tx.State != Committed {
		t.Errorf("state = %v, want committed", tx.State)
	}
	// Double commit fails; abort after commit fails.
	if _, err := m.Commit(tx); err == nil {
		t.Error("double commit should fail")
	}
	if _, err := m.Abort(tx); err == nil {
		t.Error("abort after commit should fail")
	}

	tx2 := new(Txn)
	m.BeginInto(tx2, topology.CoreID(0))
	if _, err := m.Abort(tx2); err != nil {
		t.Fatal(err)
	}
	if tx2.State != Aborted {
		t.Errorf("state = %v, want aborted", tx2.State)
	}
	// Aborting twice is a no-op.
	if _, err := m.Abort(tx2); err != nil {
		t.Errorf("second abort should be a no-op, got %v", err)
	}
}

func TestManagerAssignsUniqueIDs(t *testing.T) {
	d := newDomain(2, 4)
	m := NewManager(d, NewCentralList(d), numa.NewCentralRWLock(d))
	seen := make(map[ID]bool)
	// Interleave eight workers' transactions, each worker keeping one open
	// while the others begin, so ids are drawn with several in flight.
	open := make([]*Txn, 8)
	for i := 0; i < 800; i++ {
		w := i % 8
		if open[w] != nil {
			if _, err := m.Commit(open[w]); err != nil {
				t.Fatal(err)
			}
		}
		tx := new(Txn)
		m.BeginInto(tx, topology.CoreID(w))
		if seen[tx.ID] {
			t.Errorf("duplicate transaction id %d", tx.ID)
		}
		seen[tx.ID] = true
		open[w] = tx
	}
	if len(seen) != 800 {
		t.Errorf("saw %d unique ids, want 800", len(seen))
	}
	for _, tx := range open {
		if _, err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoPCCommit(t *testing.T) {
	d := newDomain(4, 1)
	logs, coord := perSocketCoordinator(d)
	tx := &Txn{ID: 7, State: Active, Socket: 0}

	out, err := coord.Run(tx, 0, 0, []int{1, 2, 1}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || tx.State != Preparing || !tx.Distributed {
		t.Errorf("outcome = %+v, txn state %v", out, tx.State)
	}
	// 2 unique participants: 4 messages in phase 1, 4 in phase 2.
	if out.Messages != 8 {
		t.Errorf("Messages = %d, want 8", out.Messages)
	}
	// 2 prepare + 1 decision + 2 end records.
	if out.LogRecords != 5 {
		t.Errorf("LogRecords = %d, want 5", out.LogRecords)
	}
	if out.ByComponent[vclock.Communication] <= 0 || out.ByComponent[vclock.Logging] <= 0 ||
		out.ByComponent[vclock.Locking] <= 0 || out.ByComponent[vclock.Management] <= 0 {
		t.Errorf("missing component costs: %+v", out.ByComponent)
	}
	if out.TotalCost() <= 0 {
		t.Error("total cost should be positive")
	}
	// Prepare records actually reached the participants' logs.
	if logs.Log(1).Tail() == 0 || logs.Log(2).Tail() == 0 {
		t.Error("participants did not log prepare records")
	}
}

func TestTwoPCAbortAndErrors(t *testing.T) {
	d := newDomain(4, 1)
	_, coord := perSocketCoordinator(d)

	tx := &Txn{ID: 8, State: Active, Socket: 0}
	out, err := coord.Run(tx, 0, 0, []int{3}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed || tx.State != Preparing {
		t.Error("abort vote should be reported while the transaction stays in Preparing")
	}
	if _, err := coord.Run(nil, 0, 0, []int{1}, 0, false); err == nil {
		t.Error("nil transaction should error")
	}
	if _, err := coord.Run(&Txn{ID: 9}, 0, 0, nil, 0, false); err == nil {
		t.Error("no participants should error")
	}
}

func TestTwoPCMoreParticipantsCostMore(t *testing.T) {
	d := newDomain(8, 1)
	_, coord := perSocketCoordinator(d)
	two, _ := coord.Run(&Txn{ID: 1, State: Active}, 0, 0, []int{1, 2}, 0, false)
	six, _ := coord.Run(&Txn{ID: 2, State: Active}, 0, 0, []int{1, 2, 3, 4, 5, 6}, 0, false)
	if six.TotalCost() <= two.TotalCost() {
		t.Errorf("6-participant 2PC cost %d should exceed 2-participant cost %d", six.TotalCost(), two.TotalCost())
	}
}
