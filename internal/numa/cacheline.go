package numa

import (
	"math/bits"

	"atrapos/internal/topology"
)

// CacheLine models the coherence behaviour of one contended cache line, such
// as the head of Shore-MT's lock-free transaction list, a lock-table bucket
// header, or the tail of the log buffer.
//
// Each access records the socket of the accessor and charges the cost of
// transferring ownership from the previous owner's socket. When a single
// socket uses the line, every access is socket-local and cheap; when threads
// on many sockets hammer the same line, ownership ping-pongs across the
// interconnect and the per-access cost grows with the machine's distances.
// This is exactly the effect that makes centralized data structures the
// scalability bottleneck the paper describes in Sections III and IV.
//
// A CacheLine is single-owner: plain fields, no atomics. The contention it
// models is priced, never enacted on the host. Every priced line belongs to
// one engine (its lock tables, active lists, state locks and logs), a priced
// run is one goroutine, and the harness pool gives each point its own engine,
// so no two goroutines reach one line. The executed executors never reach a
// priced line either: see the nil line below.
//
// A nil *CacheLine is the unpriced line: Touch and Atomic return 0 and record
// nothing (the pattern obs.Ring uses). The executed hash backend's value logs
// run on one — their cost is measured in wall time, and a priced line's
// counters (the topology's traffic matrix above all) are memory two executors
// would both write on every append.
type CacheLine struct {
	owner  topology.SocketID // last owning socket
	domain *Domain
	// window tracks the sockets that touched the line recently (a bitmask in
	// the low bits and an access counter in the high bits). Atomic operations
	// on a line contended by several sockets pay a retry term proportional to
	// the number of contending sockets, modeling CAS retries and cache-line
	// ping-pong under contention.
	window uint64
}

const contentionWindow = 64

// NewCacheLine returns a cache line that is initially owned by socket home.
func NewCacheLine(d *Domain, home topology.SocketID) *CacheLine {
	return &CacheLine{owner: home, domain: d}
}

// Touch performs a plain read/write access from socket s and returns its cost.
func (cl *CacheLine) Touch(s topology.SocketID) Cost {
	return cl.record(s, false)
}

// Atomic performs an atomic (CAS-like) access from socket s and returns its cost.
func (cl *CacheLine) Atomic(s topology.SocketID) Cost {
	return cl.record(s, true)
}

func (cl *CacheLine) record(s topology.SocketID, atomicOp bool) Cost {
	if cl == nil {
		return 0
	}
	prev := cl.owner
	cl.owner = s
	var c Cost
	if atomicOp {
		c = cl.domain.AtomicCost(s, prev)
		if n := cl.noteContender(s); n > 1 {
			c += Cost(n-1) * RemoteTransferPerHop
		}
	} else {
		c = cl.domain.AccessCost(s, prev)
	}
	cl.domain.Top.RecordTraffic(s, prev, 64)
	return c
}

// noteContender records that socket s touched the line and returns the
// number of distinct sockets seen in the current contention window.
func (cl *CacheLine) noteContender(s topology.SocketID) int {
	bit := uint64(1)
	if s > 0 && int(s) < 48 {
		bit = 1 << uint(s)
	}
	const maskBits = 1<<48 - 1
	if count := cl.window >> 48; count >= contentionWindow {
		cl.window = 1<<48 | bit
	} else {
		cl.window = (count+1)<<48 | cl.window&maskBits | bit
	}
	return bits.OnesCount64(cl.window & maskBits)
}

// Owner returns the socket that last touched the line.
func (cl *CacheLine) Owner() topology.SocketID { return cl.owner }

// Striped is a set of cache lines that price one logical structure, such as
// the list of active transactions or the state lock of Section IV: one line
// per socket, so the critical path only ever touches its local stripe, or one
// shared line whose accesses bounce across the interconnect.
type Striped struct {
	lines []*CacheLine
}

// NewStriped builds one cache line per socket, each homed on its socket, when
// perSocket is set, and otherwise one shared line homed on socket 0.
func NewStriped(d *Domain, perSocket bool) *Striped {
	n := 1
	if perSocket {
		n = d.Top.Sockets()
	}
	s := &Striped{lines: make([]*CacheLine, n)}
	for i := range s.lines {
		s.lines[i] = NewCacheLine(d, topology.SocketID(i))
	}
	return s
}

// Atomic performs an atomic access from socket sock on its stripe and returns
// its cost. A socket with no stripe of its own (any socket of a shared line,
// or a failed or unknown one) uses stripe 0, so it still makes progress.
func (s *Striped) Atomic(sock topology.SocketID) Cost {
	if uint(sock) < uint(len(s.lines)) {
		return s.lines[sock].Atomic(sock)
	}
	return s.lines[0].Atomic(sock)
}

// NewCentralRWLock and NewPartitionedRWLock remain for the frozen benchmark
// module, which builds its state locks with them.

// NewCentralRWLock returns NewStriped(d, false).
func NewCentralRWLock(d *Domain) *Striped { return NewStriped(d, false) }

// NewPartitionedRWLock returns NewStriped(d, true).
func NewPartitionedRWLock(d *Domain) *Striped { return NewStriped(d, true) }
