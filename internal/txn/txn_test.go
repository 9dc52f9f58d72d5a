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
	m := NewManager(d, numa.NewStriped(d, false), numa.NewStriped(d, false))
	// One shared list and lock: a begin on socket 3 pulls the lines the
	// socket-0 begin left there, so it costs more than the socket-0 one.
	var tx0, tx3 Txn
	first := m.BeginInto(&tx0, 0)
	if first <= 0 {
		t.Error("Begin should have a positive cost")
	}
	if c := m.BeginInto(&tx3, 6); c <= first {
		t.Errorf("remote begin on a shared list cost %d, want more than the local %d", c, first)
	}
	if c, _ := m.Commit(&tx0); c <= 0 {
		t.Error("Commit should have a positive cost")
	}
	m.Commit(&tx3)
}

func TestPartitionedListIsSocketLocal(t *testing.T) {
	d := newDomain(4, 2)
	m := NewManager(d, numa.NewStriped(d, true), numa.NewStriped(d, true))
	// Every begin and commit on its own socket's stripes costs exactly local
	// atomics: two on the state lock and one on the list, then one on the list.
	for s := 0; s < 4; s++ {
		var tx Txn
		if c := m.BeginInto(&tx, topology.CoreID(2*s)); c != 3*numa.LocalAtomic {
			t.Errorf("socket %d begin cost %d, want 3 local atomics %d", s, c, 3*numa.LocalAtomic)
		}
		if c, _ := m.Commit(&tx); c != numa.LocalAtomic {
			t.Errorf("socket %d commit cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
	}
	// A transaction bound to a socket with no stripe falls back to stripe 0.
	tx := Txn{State: Active, Socket: 77}
	if c, _ := m.Abort(&tx); c <= 0 {
		t.Error("fallback abort should have a positive cost")
	}
}

func TestPartitionedListSnapshotSeesAllSockets(t *testing.T) {
	d := newDomain(4, 2)
	p := NewManager(d, numa.NewStriped(d, true), numa.NewStriped(d, true))
	central := NewManager(d, numa.NewStriped(d, false), numa.NewStriped(d, false))
	// Transactions open on every socket at once: each socket's list is its own
	// stripe, so neither the begins nor the later commits pull a line across
	// sockets, whereas the central list's head moves on every remote begin.
	var open, centralOpen [4]Txn
	var centralCost numa.Cost
	for s := 0; s < 4; s++ {
		if c := p.BeginInto(&open[s], topology.CoreID(2*s)); c != 3*numa.LocalAtomic {
			t.Errorf("socket %d begin cost %d, want 3 local atomics %d", s, c, 3*numa.LocalAtomic)
		}
		centralCost += central.BeginInto(&centralOpen[s], topology.CoreID(2*s))
	}
	for s := 0; s < 4; s++ {
		if c, _ := p.Commit(&open[s]); c != numa.LocalAtomic {
			t.Errorf("socket %d commit cost %d, want local atomic %d", s, c, numa.LocalAtomic)
		}
	}
	if centralCost <= 12*numa.LocalAtomic {
		t.Errorf("central begins from 4 sockets cost %d, want more than 12 local atomics (%d)", centralCost, 12*numa.LocalAtomic)
	}
}

func TestCentralVsPartitionedListContention(t *testing.T) {
	d := newDomain(8, 1)
	costOf := func(perSocket bool) numa.Cost {
		m := NewManager(d, numa.NewStriped(d, perSocket), numa.NewStriped(d, perSocket))
		var total numa.Cost
		var tx Txn
		for i := 0; i < 400; i++ {
			total += m.BeginInto(&tx, topology.CoreID(i%8))
			c, _ := m.Commit(&tx)
			total += c
		}
		return total
	}
	if costOf(true)*2 >= costOf(false) {
		t.Error("per-socket system state should be much cheaper than the shared one under multi-socket traffic")
	}
}

func TestManagerLifecycle(t *testing.T) {
	d := newDomain(2, 2)
	m := NewManager(d, numa.NewStriped(d, true), numa.NewStriped(d, true))

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
	m := NewManager(d, numa.NewStriped(d, false), numa.NewStriped(d, false))
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
	if !out.Committed || tx.State != Preparing {
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

// BenchmarkManagerBeginCommit prices one begin and one commit per op: the
// shared and the per-socket system state, driven from one socket or
// round-robin over four. Every case must report 0 allocs/op (the Txn is
// reused, as a worker reuses its own).
func BenchmarkManagerBeginCommit(b *testing.B) {
	d := newDomain(4, 2)
	for _, layout := range []struct {
		name      string
		perSocket bool
	}{
		{"shared", false},
		{"per-socket", true},
	} {
		for _, sockets := range []int{1, 4} {
			name := layout.name + "/one-socket"
			if sockets > 1 {
				name = layout.name + "/four-sockets"
			}
			b.Run(name, func(b *testing.B) {
				m := NewManager(d, numa.NewStriped(d, layout.perSocket), numa.NewStriped(d, layout.perSocket))
				var tx Txn
				var total numa.Cost
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					total += m.BeginInto(&tx, topology.CoreID(2*(i%sockets)))
					c, err := m.Commit(&tx)
					if err != nil {
						b.Fatal(err)
					}
					total += c
				}
				if total <= 0 {
					b.Fatal("a priced begin and commit cost nothing")
				}
			})
		}
	}
}
