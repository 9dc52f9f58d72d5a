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
	return numa.MustNewDomain(top, numa.DefaultCostModel())
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
	t1 := &Txn{ID: 1}
	t2 := &Txn{ID: 2}
	if c := l.Add(0, t1); c <= 0 {
		t.Error("Add should have a positive cost")
	}
	l.Add(3, t2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	ids, cost := l.Snapshot(0)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("Snapshot = %v", ids)
	}
	if cost <= 0 {
		t.Error("Snapshot should have a positive cost")
	}
	l.Remove(0, t1)
	l.Remove(3, t2)
	if l.Len() != 0 {
		t.Errorf("Len after removals = %d", l.Len())
	}
}

func TestPartitionedListIsSocketLocal(t *testing.T) {
	d := newDomain(4, 2)
	p := NewPartitionedList(d)
	// Every add/remove from its own socket costs exactly a local atomic.
	for s := 0; s < 4; s++ {
		tx := &Txn{ID: ID(s + 1)}
		if c := p.Add(topology.SocketID(s), tx); c != d.Model.LocalAtomic {
			t.Errorf("socket %d add cost %d, want local atomic %d", s, c, d.Model.LocalAtomic)
		}
		if c := p.Remove(topology.SocketID(s), tx); c != d.Model.LocalAtomic {
			t.Errorf("socket %d remove cost %d, want local atomic %d", s, c, d.Model.LocalAtomic)
		}
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d, want 0", p.Len())
	}
	// Out-of-range sockets fall back to stripe 0.
	tx := &Txn{ID: 99}
	p.Add(topology.SocketID(77), tx)
	if p.Len() != 1 {
		t.Error("fallback add lost the transaction")
	}
	p.Remove(topology.SocketID(77), tx)
}

func TestPartitionedListSnapshotSeesAllSockets(t *testing.T) {
	d := newDomain(4, 2)
	p := NewPartitionedList(d)
	for s := 0; s < 4; s++ {
		p.Add(topology.SocketID(s), &Txn{ID: ID(10 + s)})
	}
	ids, cost := p.Snapshot(0)
	if len(ids) != 4 {
		t.Fatalf("Snapshot = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("snapshot not sorted")
		}
	}
	// A snapshot touches remote stripes, so it costs more than a local access.
	if cost <= d.Model.LocalAccess {
		t.Errorf("snapshot cost %d suspiciously low", cost)
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
			tx := &Txn{ID: ID(i)}
			total += l.Add(s, tx)
			total += l.Remove(s, tx)
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
	if m.Active() != 1 {
		t.Errorf("Active = %d, want 1", m.Active())
	}
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tx.State != Committed {
		t.Errorf("state = %v, want committed", tx.State)
	}
	if m.Active() != 0 {
		t.Errorf("Active = %d, want 0", m.Active())
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

	st := m.Stats()
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 {
		t.Errorf("stats = %+v", st)
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
	if m.Active() != 8 {
		t.Errorf("Active = %d with one transaction open per worker, want 8", m.Active())
	}
	for _, tx := range open {
		m.Commit(tx)
	}
	if m.Active() != 0 {
		t.Errorf("Active = %d after every commit, want 0", m.Active())
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
