// Package numa provides the NUMA cost primitives that the rest of the system
// uses to model non-uniform memory access on hardware Islands: a configurable
// cost model, a cache-line ownership model that makes accesses to shared
// mutable state more expensive the more sockets touch it, NUMA-aware
// (per-socket) reader/writer locks, and memory-allocation placement policies.
//
// Everything in this package accounts cost in virtual nanoseconds; it never
// sleeps. Engines charge the returned costs to per-worker virtual clocks.
package numa

import (
	"fmt"

	"atrapos/internal/topology"
)

// Cost is a duration expressed in virtual nanoseconds.
type Cost int64

// CostModel holds the base latencies used to convert topology distances into
// virtual time. The defaults are calibrated to the published latencies of
// Westmere-EX class machines: an L3 hit around 20 ns, a local atomic
// operation in the tens of nanoseconds, and a cache line transfer over one
// QPI hop in the low hundreds of nanoseconds.
type CostModel struct {
	// LocalAccess is the cost of reading or writing data that is already in
	// a socket-local cache.
	LocalAccess Cost
	// LocalAtomic is the cost of an atomic operation (CAS, fetch-and-add) on
	// a cache line owned by the local socket.
	LocalAtomic Cost
	// RemoteTransferPerHop is the additional cost of pulling a cache line
	// from a socket that is one interconnect hop away. Multi-hop transfers
	// scale linearly with the hop count.
	RemoteTransferPerHop Cost
	// DieTransferPerHop is the additional cost of pulling a cache line from
	// another die of the same socket (CCX-to-CCX, cluster-to-cluster). It is
	// the sub-NUMA analogue of RemoteTransferPerHop and much cheaper: the
	// transfer stays on the package. Flat machines (one die per socket) never
	// incur it.
	DieTransferPerHop Cost
	// LocalDRAM is the cost of a miss to the local memory node.
	LocalDRAM Cost
	// RemoteDRAMPerHop is the additional DRAM access cost per interconnect hop.
	RemoteDRAMPerHop Cost
	// DieDRAMPerHop is the additional DRAM access cost per intra-socket die
	// hop: on chiplet CPUs every memory access from a compute die crosses the
	// package fabric to the die hosting the memory controller. Flat machines
	// never incur it.
	DieDRAMPerHop Cost
	// MessagePerHop is the cost of a shared-memory message between instances
	// whose receiving thread is one hop away (used by the distributed
	// transaction layer of shared-nothing configurations).
	MessagePerHop Cost
	// DieMessagePerHop is the additional cost of a shared-memory message to a
	// thread on another die of the same socket, per die hop.
	DieMessagePerHop Cost
	// MessageLocal is the cost of a shared-memory message delivered within a socket.
	MessageLocal Cost
	// ByteTransferPerHop is the per-byte cost of moving payload data between
	// sockets at a synchronization point.
	ByteTransferPerHop Cost
	// DieByteTransferPerHop is the per-byte cost of moving payload data
	// between dies of the same socket at a synchronization point.
	DieByteTransferPerHop Cost
	// RowWork is the CPU cost of processing one row inside an action
	// (instruction execution, predicate evaluation, tuple copy), independent
	// of where the row's memory lives. OLTP row processing dominates the raw
	// memory latency, which is why the paper measures only single-digit
	// percentage effects from remote memory placement (Table I).
	RowWork Cost
}

// DefaultCostModel returns the cost model used throughout the evaluation.
// The die-level constants are calibrated to published chiplet latencies
// (cross-CCX cache transfers land between an L3 hit and a one-hop QPI
// transfer; messages and payload bytes scale likewise). On flat machine
// profiles no core pair spans dies within a socket, so none of the die-level
// terms is ever charged and the model reproduces the pre-hierarchy numbers
// exactly.
func DefaultCostModel() CostModel {
	return CostModel{
		LocalAccess:           20,
		LocalAtomic:           60,
		RemoteTransferPerHop:  320,
		DieTransferPerHop:     110,
		LocalDRAM:             90,
		RemoteDRAMPerHop:      60,
		DieDRAMPerHop:         25,
		MessagePerHop:         900,
		DieMessagePerHop:      300,
		MessageLocal:          350,
		ByteTransferPerHop:    2,
		DieByteTransferPerHop: 1,
		RowWork:               9000,
	}
}

// Validate reports whether the cost model is usable.
func (m CostModel) Validate() error {
	if m.LocalAccess <= 0 || m.LocalAtomic <= 0 || m.LocalDRAM <= 0 {
		return fmt.Errorf("numa: local costs must be positive: %+v", m)
	}
	if m.RemoteTransferPerHop < 0 || m.RemoteDRAMPerHop < 0 || m.MessagePerHop < 0 ||
		m.MessageLocal < 0 || m.ByteTransferPerHop < 0 || m.RowWork < 0 ||
		m.DieTransferPerHop < 0 || m.DieDRAMPerHop < 0 || m.DieMessagePerHop < 0 ||
		m.DieByteTransferPerHop < 0 {
		return fmt.Errorf("numa: costs must be non-negative: %+v", m)
	}
	return nil
}

// Domain couples a topology with a cost model. It is the object the engines
// consult for every cost decision.
type Domain struct {
	Top   *topology.Topology
	Model CostModel
}

// NewDomain builds a Domain, validating the cost model.
func NewDomain(top *topology.Topology, model CostModel) (*Domain, error) {
	if top == nil {
		return nil, fmt.Errorf("numa: nil topology")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Domain{Top: top, Model: model}, nil
}

// MustNewDomain is like NewDomain but panics on error.
func MustNewDomain(top *topology.Topology, model CostModel) *Domain {
	d, err := NewDomain(top, model)
	if err != nil {
		panic(err)
	}
	return d
}

// AtomicCost returns the cost of an atomic operation issued by a thread on
// socket `from` against a cache line last owned by socket `owner`.
func (d *Domain) AtomicCost(from, owner topology.SocketID) Cost {
	c := d.Model.LocalAtomic
	if from != owner {
		c += Cost(d.Top.Distance(from, owner)) * d.Model.RemoteTransferPerHop
	}
	return c
}

// AccessCost returns the cost of a plain read/write of shared data that
// currently lives in the cache of socket `owner`.
func (d *Domain) AccessCost(from, owner topology.SocketID) Cost {
	c := d.Model.LocalAccess
	if from != owner {
		c += Cost(d.Top.Distance(from, owner)) * d.Model.RemoteTransferPerHop
	}
	return c
}

// DRAMCost returns the cost of a memory access from socket `from` to a page
// allocated on memory node `node`.
func (d *Domain) DRAMCost(from, node topology.SocketID) Cost {
	c := d.Model.LocalDRAM
	if from != node {
		c += Cost(d.Top.Distance(from, node)) * d.Model.RemoteDRAMPerHop
	}
	return c
}

// --- Core-granular (hierarchical) costs ---
//
// The Core* variants price communication with the full island hierarchy:
// pairs that span sockets pay socket hops exactly like the socket-level
// functions above, while pairs that span dies of one socket pay the (much
// cheaper) die-level constants. On flat machines every same-socket pair
// shares a die, so each Core* function returns exactly what its socket-level
// counterpart returns — the equivalence the flat-profile regression tests
// assert.

// CoreAtomicCost returns the cost of an atomic operation issued by a thread
// on core `from` against a cache line last owned by core `owner`.
func (d *Domain) CoreAtomicCost(from, owner topology.CoreID) Cost {
	sockHops, dieHops := d.Top.CorePath(from, owner)
	return d.Model.LocalAtomic +
		Cost(sockHops)*d.Model.RemoteTransferPerHop +
		Cost(dieHops)*d.Model.DieTransferPerHop
}

// CoreMessageCost returns the cost of delivering one message from a thread on
// core `from` to a thread on core `to` over shared memory channels.
func (d *Domain) CoreMessageCost(from, to topology.CoreID) Cost {
	sockHops, dieHops := d.Top.CorePath(from, to)
	return d.Model.MessageLocal +
		Cost(sockHops)*d.Model.MessagePerHop +
		Cost(dieHops)*d.Model.DieMessagePerHop
}

// CoreDRAMCost returns the cost of a memory access from core `from` to a page
// allocated on memory node `node`. On hierarchical machines a socket's memory
// controller is modeled as living on its first die (the IO-die layout of
// chiplet CPUs), so even socket-local accesses from other dies pay die hops.
func (d *Domain) CoreDRAMCost(from topology.CoreID, node topology.SocketID) Cost {
	fromSock := d.Top.SocketOf(from)
	c := d.DRAMCost(fromSock, node)
	if fromSock == node && d.Top.Hierarchical() {
		ctrl := d.Top.FirstDieOn(node)
		c += Cost(d.Top.DieHops(d.Top.DieOf(from), ctrl)) * d.Model.DieDRAMPerHop
	}
	return c
}

// SyncPointCost implements the paper's synchronization-point formula
// C(s) = (nsocket(s)-1) * Distance(s) * Size(s), where Distance(s) is the
// average pairwise distance between the participating sockets and Size(s) the
// number of bytes exchanged. Participants on failed sockets are excluded: a
// dead socket cannot take part in a rendezvous, its partitions having been
// redirected elsewhere, so the remaining participants only pay for the
// exchange among themselves.
//
// It runs on the transaction hot path, so duplicates are skipped with linear
// scans over the (short, bounded by the socket count) participant list
// instead of building a set: the function performs no heap allocations.
func (d *Domain) SyncPointCost(sockets []topology.SocketID, bytes int) Cost {
	n := 0
	sum, pairs := 0, 0
	for i := range sockets {
		if !d.Top.Alive(sockets[i]) || !firstOccurrence(sockets, i) {
			continue
		}
		for j := 0; j < i; j++ {
			if !d.Top.Alive(sockets[j]) || !firstOccurrence(sockets, j) {
				continue
			}
			sum += d.Top.Distance(sockets[i], sockets[j])
			pairs++
		}
		n++
	}
	if n <= 1 || pairs == 0 {
		return 0
	}
	dist := float64(sum) / float64(pairs)
	return Cost(n-1) * Cost(dist*float64(bytes)*float64(d.Model.ByteTransferPerHop))
}

// SyncPointCostAt is the hierarchical generalization of SyncPointCost: the
// participants are the executing cores, islands are counted at the die level
// (the finest level at which data actually moves between caches), and each
// pair of participating islands is priced on its own axis — socket hops at
// ByteTransferPerHop for pairs spanning sockets, die hops at the cheaper
// DieByteTransferPerHop for pairs inside one socket. On flat machines every
// die is a socket and the formula reduces to SyncPointCost exactly.
//
// Like SyncPointCost it runs on the transaction hot path: duplicates (cores
// on an already-counted die) and cores on failed sockets are skipped with
// linear scans, and the function performs no heap allocations.
func (d *Domain) SyncPointCostAt(cores []topology.CoreID, bytes int) Cost {
	top := d.Top
	n := 0
	pairs := 0
	var sum float64
	for i := range cores {
		di := top.DieOf(cores[i])
		if di == topology.InvalidDie || !top.Alive(top.SocketOf(cores[i])) || !firstDie(top, cores, i) {
			continue
		}
		for j := 0; j < i; j++ {
			dj := top.DieOf(cores[j])
			if dj == topology.InvalidDie || !top.Alive(top.SocketOf(cores[j])) || !firstDie(top, cores, j) {
				continue
			}
			sockHops, dieHops := top.CorePath(cores[i], cores[j])
			sum += float64(sockHops)*float64(d.Model.ByteTransferPerHop) +
				float64(dieHops)*float64(d.Model.DieByteTransferPerHop)
			pairs++
		}
		n++
	}
	if n <= 1 || pairs == 0 {
		return 0
	}
	return Cost(n-1) * Cost(sum/float64(pairs)*float64(bytes))
}

// firstOccurrence reports whether sockets[i] does not appear before index i.
func firstOccurrence(sockets []topology.SocketID, i int) bool {
	for j := 0; j < i; j++ {
		if sockets[j] == sockets[i] {
			return false
		}
	}
	return true
}

// firstDie reports whether cores[i]'s die is not represented before index i.
func firstDie(top *topology.Topology, cores []topology.CoreID, i int) bool {
	di := top.DieOf(cores[i])
	for j := 0; j < i; j++ {
		if top.DieOf(cores[j]) == di {
			return false
		}
	}
	return true
}
