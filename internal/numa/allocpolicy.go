package numa

import (
	"fmt"

	"atrapos/internal/topology"
)

// AllocPolicy decides on which memory node (socket) the data of a database
// instance or partition is allocated. It reproduces the three numactl modes
// of Section III-D: local, central (all instances allocate on a single node),
// and remote (every instance allocates on a different remote node).
type AllocPolicy int

const (
	// AllocLocal allocates each instance's memory on its own socket.
	AllocLocal AllocPolicy = iota
	// AllocCentral allocates every instance's memory on the last socket, as
	// the paper does.
	AllocCentral
	// AllocRemote allocates each instance's memory on a different remote socket.
	AllocRemote
)

// String implements fmt.Stringer.
func (p AllocPolicy) String() string {
	switch p {
	case AllocLocal:
		return "local"
	case AllocCentral:
		return "central"
	case AllocRemote:
		return "remote"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Placement maps each socket's instance to the memory node holding its data.
type Placement struct {
	node []topology.SocketID
}

// NewPlacement computes the memory node of each socket's data under policy.
func NewPlacement(top *topology.Topology, policy AllocPolicy) (*Placement, error) {
	n := top.Sockets()
	p := &Placement{node: make([]topology.SocketID, n)}
	for s := 0; s < n; s++ {
		switch policy {
		case AllocLocal:
			p.node[s] = topology.SocketID(s)
		case AllocCentral:
			p.node[s] = topology.SocketID(n - 1)
		case AllocRemote:
			// Every instance allocates on a different remote node: shift by
			// half the machine so instance s never lands on itself.
			p.node[s] = topology.SocketID((s + n/2 + n%2) % n)
			if p.node[s] == topology.SocketID(s) {
				p.node[s] = topology.SocketID((s + 1) % n)
			}
		default:
			return nil, fmt.Errorf("numa: unknown allocation policy %v", policy)
		}
	}
	return p, nil
}

// NodeFor returns the memory node that holds the data of the instance bound
// to socket s.
func (p *Placement) NodeFor(s topology.SocketID) topology.SocketID {
	if int(s) < 0 || int(s) >= len(p.node) {
		return 0
	}
	return p.node[s]
}
