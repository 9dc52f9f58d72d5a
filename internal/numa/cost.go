// Package numa provides the NUMA cost primitives that the rest of the system
// uses to model non-uniform memory access on hardware Islands: the cost
// constants, a cache-line ownership model that makes accesses to shared
// mutable state more expensive the more sockets touch it, NUMA-aware
// (per-socket) reader/writer locks, and memory-allocation placement policies.
//
// Everything in this package accounts cost in virtual nanoseconds; it never
// sleeps. Engines charge the returned costs to per-worker virtual clocks.
package numa

import (
	"atrapos/internal/topology"
)

// Cost is a duration expressed in virtual nanoseconds.
type Cost int64

// The base latencies that convert topology distances into virtual time. They
// are calibrated to the published latencies of Westmere-EX class machines: an
// L3 hit around 20 ns, a local atomic operation in the tens of nanoseconds,
// and a cache line transfer over one QPI hop in the low hundreds of
// nanoseconds. The die-level constants are calibrated to published chiplet
// latencies (cross-CCX cache transfers land between an L3 hit and a one-hop
// QPI transfer; messages and payload bytes scale likewise). On flat machine
// profiles no core pair spans dies within a socket, so none of the die-level
// terms is ever charged.
const (
	// LocalAccess is the cost of reading or writing data that is already in
	// a socket-local cache.
	LocalAccess Cost = 20
	// LocalAtomic is the cost of an atomic operation (CAS, fetch-and-add) on
	// a cache line owned by the local socket.
	LocalAtomic Cost = 60
	// RemoteTransferPerHop is the additional cost of pulling a cache line
	// from a socket that is one interconnect hop away. Multi-hop transfers
	// scale linearly with the hop count.
	RemoteTransferPerHop Cost = 320
	// DieTransferPerHop is the additional cost of pulling a cache line from
	// another die of the same socket (CCX-to-CCX, cluster-to-cluster). It is
	// the sub-NUMA analogue of RemoteTransferPerHop and much cheaper: the
	// transfer stays on the package. Flat machines (one die per socket) never
	// incur it.
	DieTransferPerHop Cost = 110
	// LocalDRAM is the cost of a miss to the local memory node.
	LocalDRAM Cost = 90
	// RemoteDRAMPerHop is the additional DRAM access cost per interconnect hop.
	RemoteDRAMPerHop Cost = 60
	// DieDRAMPerHop is the additional DRAM access cost per intra-socket die
	// hop: on chiplet CPUs every memory access from a compute die crosses the
	// package fabric to the die hosting the memory controller. Flat machines
	// never incur it.
	DieDRAMPerHop Cost = 25
	// MessagePerHop is the cost of a shared-memory message between instances
	// whose receiving thread is one hop away (used by the distributed
	// transaction layer of shared-nothing configurations).
	MessagePerHop Cost = 900
	// DieMessagePerHop is the additional cost of a shared-memory message to a
	// thread on another die of the same socket, per die hop.
	DieMessagePerHop Cost = 300
	// MessageLocal is the cost of a shared-memory message delivered within a socket.
	MessageLocal Cost = 350
	// ByteTransferPerHop is the per-byte cost of moving payload data between
	// sockets at a synchronization point.
	ByteTransferPerHop Cost = 2
	// DieByteTransferPerHop is the per-byte cost of moving payload data
	// between dies of the same socket at a synchronization point.
	DieByteTransferPerHop Cost = 1
	// RowWork is the CPU cost of processing one row inside an action
	// (instruction execution, predicate evaluation, tuple copy), independent
	// of where the row's memory lives. OLTP row processing dominates the raw
	// memory latency, which is why the paper measures only single-digit
	// percentage effects from remote memory placement (Table I).
	RowWork Cost = 9000
)

// Domain is the topology the engines price every cost decision on.
type Domain struct {
	Top *topology.Topology
	// Model repeats ByteTransferPerHop for the benchmark module's replay,
	// which reads it from here; nothing in this module does.
	Model struct{ ByteTransferPerHop Cost }
}

// NewDomain returns the domain of top.
func NewDomain(top *topology.Topology) *Domain {
	d := &Domain{Top: top}
	d.Model.ByteTransferPerHop = ByteTransferPerHop
	return d
}

// AtomicCost returns the cost of an atomic operation issued by a thread on
// socket `from` against a cache line last owned by socket `owner`.
func (d *Domain) AtomicCost(from, owner topology.SocketID) Cost {
	c := LocalAtomic
	if from != owner {
		c += Cost(d.Top.Distance(from, owner)) * RemoteTransferPerHop
	}
	return c
}

// AccessCost returns the cost of a plain read/write of shared data that
// currently lives in the cache of socket `owner`.
func (d *Domain) AccessCost(from, owner topology.SocketID) Cost {
	c := LocalAccess
	if from != owner {
		c += Cost(d.Top.Distance(from, owner)) * RemoteTransferPerHop
	}
	return c
}

// DRAMCost returns the cost of a memory access from socket `from` to a page
// allocated on memory node `node`.
func (d *Domain) DRAMCost(from, node topology.SocketID) Cost {
	c := LocalDRAM
	if from != node {
		c += Cost(d.Top.Distance(from, node)) * RemoteDRAMPerHop
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
	return LocalAtomic +
		Cost(sockHops)*RemoteTransferPerHop +
		Cost(dieHops)*DieTransferPerHop
}

// CoreMessageCost returns the cost of delivering one message from a thread on
// core `from` to a thread on core `to` over shared memory channels.
func (d *Domain) CoreMessageCost(from, to topology.CoreID) Cost {
	sockHops, dieHops := d.Top.CorePath(from, to)
	return MessageLocal +
		Cost(sockHops)*MessagePerHop +
		Cost(dieHops)*DieMessagePerHop
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
		c += Cost(d.Top.DieHops(d.Top.DieOf(from), ctrl)) * DieDRAMPerHop
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
	return Cost(n-1) * Cost(dist*float64(bytes)*float64(ByteTransferPerHop))
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
			sum += float64(sockHops)*float64(ByteTransferPerHop) +
				float64(dieHops)*float64(DieByteTransferPerHop)
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
