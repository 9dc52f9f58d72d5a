// Package topology models the hardware Islands of a multisocket multicore
// server: processor sockets, the cores they contain, and the non-uniform
// communication distances between sockets.
//
// The paper's experimental platform is an 8-socket, 10-core-per-socket Intel
// Westmere server whose sockets are connected in a twisted-cube QPI topology.
// Because the Go runtime offers no thread pinning or NUMA placement control,
// this package provides an explicit software model of that hardware: engines
// bind logical workers to Core identities and charge communication costs
// derived from the Distance matrix. Everything that depends on "which socket
// does this thread / cache line / memory page live on" is answered here.
package topology

import "fmt"

// CoreID identifies a logical processor core within a Topology.
// Cores are numbered densely from 0 across all sockets.
type CoreID int

// SocketID identifies a processor socket (a hardware Island).
type SocketID int

// InvalidSocket is returned for cores that do not exist in the topology.
const InvalidSocket SocketID = -1

// DieID identifies a die (CCX, chiplet, sub-NUMA cluster) within a Topology.
// Dies are numbered densely from 0 across all sockets, so a DieID alone
// identifies both the die and (via SocketOfDie) its enclosing socket.
type DieID int

// InvalidDie is returned for cores that do not exist in the topology.
const InvalidDie DieID = -1

// Core describes one logical processor core.
type Core struct {
	ID     CoreID
	Socket SocketID
	// Die is the global index of the die the core belongs to. On flat
	// machines (one die per socket) it equals the socket index.
	Die DieID
	// Index of the core within its socket (0..CoresPerSocket-1).
	LocalIndex int
}

// Topology describes a multisocket machine as a hierarchical island tree:
// how many sockets it has, how the cores of each socket group into dies, and
// the relative communication distance between islands at every level.
//
// Distances are unitless multipliers applied by the cost model: a distance of
// 0 means "same island" (communication through a shared cache), 1 means "one
// interconnect hop", 2 means "two hops", and so on. Socket-level hops (the
// Distance matrix) and die-level hops (DieHops) are separate axes priced by
// separate cost-model constants, because a die-to-die hop inside a package is
// much cheaper than a QPI/UPI hop between packages.
//
// The shape is immutable after New. The liveness flags, their epoch and the
// traffic counters are plain fields written only by the priced run on it, one
// goroutine; the harness pool builds a fresh Topology per point, and executed
// executors read only the shape. Never run two engines on one concurrently.
type Topology struct {
	name          string
	sockets       int
	perSocket     int
	diesPerSocket int
	cores         []Core
	distance      [][]int
	failed        []bool
	qpiBytes      []int64 // interconnect traffic counters, indexed by socket
	localBytes    []int64 // memory-controller (local) traffic counters
	// epoch increments on every liveness change (FailSocket/RestoreSocket).
	// Engines key their cached alive-core lists on it so the transaction hot
	// path never has to rebuild the list.
	epoch uint64
}

// Config describes a topology to build.
type Config struct {
	// Name is a human readable label ("8-socket twisted cube").
	Name string
	// Sockets is the number of processor sockets (Islands). Must be >= 1.
	Sockets int
	// CoresPerSocket is the number of cores on each socket. Must be >= 1.
	CoresPerSocket int
	// Distance is an optional Sockets x Sockets matrix of inter-socket hop
	// counts. Distance[i][i] must be 0. If nil, a distance matrix for a
	// twisted-cube-like topology is generated.
	Distance [][]int
	// DiesPerSocket splits each socket's cores into that many dies (CCXs,
	// chiplets, sub-NUMA clusters). Zero or one means a flat socket (one die).
	// CoresPerSocket must be divisible by it. Two distinct dies of one
	// socket are one die hop apart.
	DiesPerSocket int
}

// validateDistance checks an n x n hop matrix for size, zero diagonal,
// symmetry and non-negative entries.
func validateDistance(dist [][]int, n int) error {
	if len(dist) != n {
		return fmt.Errorf("topology: distance matrix has %d rows, want %d", len(dist), n)
	}
	for i, row := range dist {
		if len(row) != n {
			return fmt.Errorf("topology: distance row %d has %d columns, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return fmt.Errorf("topology: distance[%d][%d] must be 0, got %d", i, i, row[i])
		}
		for j, d := range row {
			if d < 0 {
				return fmt.Errorf("topology: negative distance[%d][%d] = %d", i, j, d)
			}
			if dist[j][i] != d {
				return fmt.Errorf("topology: distance matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// New builds a Topology from cfg.
func New(cfg Config) (*Topology, error) {
	if cfg.Sockets < 1 {
		return nil, fmt.Errorf("topology: sockets must be >= 1, got %d", cfg.Sockets)
	}
	if cfg.CoresPerSocket < 1 {
		return nil, fmt.Errorf("topology: cores per socket must be >= 1, got %d", cfg.CoresPerSocket)
	}
	dies := cfg.DiesPerSocket
	if dies <= 0 {
		dies = 1
	}
	if cfg.CoresPerSocket%dies != 0 {
		return nil, fmt.Errorf("topology: %d cores per socket not divisible by %d dies", cfg.CoresPerSocket, dies)
	}
	dist := cfg.Distance
	if dist == nil {
		dist = TwistedCubeDistance(cfg.Sockets)
	}
	if err := validateDistance(dist, cfg.Sockets); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%d-socket x %d-core", cfg.Sockets, cfg.CoresPerSocket)
	}
	t := &Topology{
		name:          name,
		sockets:       cfg.Sockets,
		perSocket:     cfg.CoresPerSocket,
		diesPerSocket: dies,
		distance:      dist,
		failed:        make([]bool, cfg.Sockets),
		qpiBytes:      make([]int64, cfg.Sockets),
		localBytes:    make([]int64, cfg.Sockets),
	}
	perDie := cfg.CoresPerSocket / dies
	t.cores = make([]Core, 0, cfg.Sockets*cfg.CoresPerSocket)
	for s := 0; s < cfg.Sockets; s++ {
		for c := 0; c < cfg.CoresPerSocket; c++ {
			t.cores = append(t.cores, Core{
				ID:         CoreID(len(t.cores)),
				Socket:     SocketID(s),
				Die:        DieID(s*dies + c/perDie),
				LocalIndex: c,
			})
		}
	}
	return t, nil
}

// MustNew is like New but panics on error. It is intended for tests and for
// preset topologies whose configuration is known to be valid.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Default returns the paper's experimental platform: 8 sockets of 10 cores
// connected in a twisted cube.
func Default() *Topology {
	return MustNew(Config{Name: "8-socket x 10-core twisted cube", Sockets: 8, CoresPerSocket: 10})
}

// Small returns a 4-socket by 4-core topology that keeps tests and examples fast.
func Small() *Topology {
	return MustNew(Config{Name: "4-socket x 4-core", Sockets: 4, CoresPerSocket: 4})
}

// Name returns the topology's human readable label.
func (t *Topology) Name() string { return t.name }

// Sockets returns the number of sockets.
func (t *Topology) Sockets() int { return t.sockets }

// CoresPerSocket returns the number of cores on each socket.
func (t *Topology) CoresPerSocket() int { return t.perSocket }

// DiesPerSocket returns the number of dies on each socket (1 on flat machines).
func (t *Topology) DiesPerSocket() int { return t.diesPerSocket }

// NumDies returns the total number of dies across all sockets.
func (t *Topology) NumDies() int { return t.sockets * t.diesPerSocket }

// Hierarchical reports whether the machine has sub-socket structure (more
// than one die per socket). On flat machines the die level coincides with the
// socket level and every die-level cost term is zero.
func (t *Topology) Hierarchical() bool { return t.diesPerSocket > 1 }

// DieOf returns the die that core id belongs to, or InvalidDie if the core
// does not exist.
func (t *Topology) DieOf(id CoreID) DieID {
	if int(id) < 0 || int(id) >= len(t.cores) {
		return InvalidDie
	}
	return t.cores[id].Die
}

// SocketOfDie returns the socket enclosing die d.
func (t *Topology) SocketOfDie(d DieID) SocketID {
	if int(d) < 0 || int(d) >= t.NumDies() {
		return InvalidSocket
	}
	return SocketID(int(d) / t.diesPerSocket)
}

// FirstDieOn returns the first die of socket s — the die hosting the
// socket's memory controller under the IO-die model, and the die a
// socket-homed structure lands on when no owner core narrows it further.
func (t *Topology) FirstDieOn(s SocketID) DieID {
	if int(s) < 0 || int(s) >= t.sockets {
		return InvalidDie
	}
	return DieID(int(s) * t.diesPerSocket)
}

// DieHops returns the number of intra-socket die hops between dies a and b of
// the same socket. Dies on different sockets return 0: their separation is
// expressed entirely at the socket level (the Distance matrix), as the
// inter-socket link cost subsumes any on-package routing. Unknown dies report
// the maximum die distance so mistakes are conservatively expensive.
func (t *Topology) DieHops(a, b DieID) int {
	if int(a) < 0 || int(a) >= t.NumDies() || int(b) < 0 || int(b) >= t.NumDies() {
		return t.MaxDieDistance()
	}
	if a == b || t.SocketOfDie(a) != t.SocketOfDie(b) {
		return 0
	}
	return 1
}

// MaxDieDistance returns the largest intra-socket die distance: one hop on a
// machine with more than one die per socket, zero on a flat one.
func (t *Topology) MaxDieDistance() int {
	if t.diesPerSocket > 1 {
		return 1
	}
	return 0
}

// CorePath returns the hierarchical distance between two cores, decomposed
// per level: socketHops is the inter-socket interconnect distance (0 when the
// cores share a socket) and dieHops the intra-socket die distance (0 when
// they share a die or do not share a socket). Exactly one of the two is
// nonzero for any pair of cores that do not share a die; cost models price
// each axis with its own per-hop constant. Unknown cores report the machine's
// maximum socket distance, like Distance.
func (t *Topology) CorePath(a, b CoreID) (socketHops, dieHops int) {
	if int(a) < 0 || int(a) >= len(t.cores) || int(b) < 0 || int(b) >= len(t.cores) {
		return t.MaxDistance(), 0
	}
	ca, cb := &t.cores[a], &t.cores[b]
	if ca.Socket != cb.Socket {
		return t.distance[ca.Socket][cb.Socket], 0
	}
	if ca.Die != cb.Die {
		return 0, 1
	}
	return 0, 0
}

// NumCores returns the total number of cores.
func (t *Topology) NumCores() int { return len(t.cores) }

// Cores returns all cores in the topology. The returned slice must not be modified.
func (t *Topology) Cores() []Core { return t.cores }

// Core returns the core with the given id.
func (t *Topology) Core(id CoreID) (Core, error) {
	if int(id) < 0 || int(id) >= len(t.cores) {
		return Core{}, fmt.Errorf("topology: core %d out of range [0,%d)", id, len(t.cores))
	}
	return t.cores[id], nil
}

// SocketOf returns the socket that core id belongs to, or InvalidSocket if
// the core does not exist.
func (t *Topology) SocketOf(id CoreID) SocketID {
	if int(id) < 0 || int(id) >= len(t.cores) {
		return InvalidSocket
	}
	return t.cores[id].Socket
}

// CoresOn returns the cores that belong to socket s.
func (t *Topology) CoresOn(s SocketID) []Core {
	if int(s) < 0 || int(s) >= t.sockets {
		return nil
	}
	start := int(s) * t.perSocket
	return t.cores[start : start+t.perSocket]
}

// Distance returns the number of interconnect hops between sockets a and b.
// Same-socket distance is 0. Unknown sockets report the maximum distance in
// the machine so that mistakes are conservatively expensive.
func (t *Topology) Distance(a, b SocketID) int {
	if int(a) < 0 || int(a) >= t.sockets || int(b) < 0 || int(b) >= t.sockets {
		return t.MaxDistance()
	}
	return t.distance[a][b]
}

// MaxDistance returns the largest inter-socket distance in the machine.
func (t *Topology) MaxDistance() int {
	max := 0
	for _, row := range t.distance {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// FailSocket marks socket s as failed. Failed sockets remain part of the
// topology (distances are still defined) but report Alive() == false; engines
// exclude their cores from scheduling, which is how the paper simulates a
// processor failure (Section VI-D3).
func (t *Topology) FailSocket(s SocketID) error {
	if int(s) < 0 || int(s) >= t.sockets {
		return fmt.Errorf("topology: cannot fail unknown socket %d", s)
	}
	t.failed[s] = true
	t.epoch++
	return nil
}

// RestoreSocket clears the failed flag of socket s.
func (t *Topology) RestoreSocket(s SocketID) error {
	if int(s) < 0 || int(s) >= t.sockets {
		return fmt.Errorf("topology: cannot restore unknown socket %d", s)
	}
	t.failed[s] = false
	t.epoch++
	return nil
}

// Epoch returns the liveness epoch: a counter that increments whenever a
// socket fails or is restored. A cached view of the alive cores is valid for
// as long as the epoch it was built under stays current.
func (t *Topology) Epoch() uint64 { return t.epoch }

// Alive reports whether socket s is operational.
func (t *Topology) Alive(s SocketID) bool {
	if int(s) < 0 || int(s) >= t.sockets {
		return false
	}
	return !t.failed[s]
}

// AliveSockets returns the ids of all operational sockets.
func (t *Topology) AliveSockets() []SocketID {
	out := make([]SocketID, 0, t.sockets)
	for s := 0; s < t.sockets; s++ {
		if t.Alive(SocketID(s)) {
			out = append(out, SocketID(s))
		}
	}
	return out
}

// AliveCores returns all cores that belong to operational sockets.
func (t *Topology) AliveCores() []Core {
	out := make([]Core, 0, len(t.cores))
	for _, c := range t.cores {
		if t.Alive(c.Socket) {
			out = append(out, c)
		}
	}
	return out
}

// RecordTraffic accounts bytes moved on behalf of socket from to data on
// socket to. Local traffic is charged to the memory-controller counter,
// remote traffic to the interconnect (QPI) counter. The counters feed the
// Table I discussion (QPI/IMC traffic ratio).
func (t *Topology) RecordTraffic(from, to SocketID, bytes int64) {
	if int(from) < 0 || int(from) >= t.sockets {
		return
	}
	if from == to {
		t.localBytes[from] += bytes
		return
	}
	t.qpiBytes[from] += bytes
}

// TrafficStats summarizes the interconnect and memory-controller traffic
// recorded so far.
type TrafficStats struct {
	InterconnectBytes int64
	LocalBytes        int64
}

// Traffic returns the accumulated traffic counters across all sockets.
func (t *Topology) Traffic() TrafficStats {
	var st TrafficStats
	for s := 0; s < t.sockets; s++ {
		st.InterconnectBytes += t.qpiBytes[s]
		st.LocalBytes += t.localBytes[s]
	}
	return st
}

// ResetTraffic zeroes the traffic counters.
func (t *Topology) ResetTraffic() {
	clear(t.qpiBytes)
	clear(t.localBytes)
}

// QPIToIMCRatio returns the ratio of interconnect traffic to local memory
// controller traffic, the metric the paper reports for Table I (0.01 local,
// 1.36 central, 1.49 remote). Returns 0 when no local traffic was recorded.
func (t *Topology) QPIToIMCRatio() float64 {
	st := t.Traffic()
	if st.LocalBytes == 0 {
		return 0
	}
	return float64(st.InterconnectBytes) / float64(st.LocalBytes)
}

// String implements fmt.Stringer.
func (t *Topology) String() string {
	if t.diesPerSocket > 1 {
		return fmt.Sprintf("%s (%d sockets x %d dies x %d cores)",
			t.name, t.sockets, t.diesPerSocket, t.perSocket/t.diesPerSocket)
	}
	return fmt.Sprintf("%s (%d sockets x %d cores)", t.name, t.sockets, t.perSocket)
}

// TwistedCubeDistance generates a symmetric hop-count matrix for n sockets
// arranged like the twisted-cube QPI topology of large Westmere-EX servers:
// every socket reaches a subset of sockets in one hop and the rest in two.
// For n <= 4 the sockets are fully connected (distance 1). For larger n the
// matrix is derived from a hypercube-like neighbourhood.
func TwistedCubeDistance(n int) [][]int {
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
	}
	if n <= 1 {
		return dist
	}
	if n <= 4 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					dist[i][j] = 1
				}
			}
		}
		return dist
	}
	// Hypercube neighbourhood: sockets differing in exactly one bit are one
	// hop apart; the "twist" adds a direct link between diagonally opposite
	// sockets; everything else is two hops.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			x := i ^ j
			oneBit := x&(x-1) == 0
			opposite := j == n-1-i
			if oneBit || opposite {
				dist[i][j] = 1
			} else {
				dist[i][j] = 2
			}
		}
	}
	return dist
}
