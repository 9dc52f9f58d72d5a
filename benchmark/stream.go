package main

import (
	"math/rand"

	"atrapos/internal/engine"
	"atrapos/internal/partition"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// splitMix is the engines' per-transaction generator (splitmix64, reseeded
// with Seed+n for transaction n), repeated here because the replay must
// generate the stream the engine executes and the engine keeps its copy
// private.
type splitMix struct{ state uint64 }

func (s *splitMix) seed(v int64) {
	z := uint64(v) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	s.state = z ^ (z >> 31)
}

func (s *splitMix) Seed(v int64) { s.seed(v) }

func (s *splitMix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// act is one action of the flattened stream with its routing resolved, so a
// layer replay times the layer's calls and not the engine's dispatch.
type act struct {
	workload.Action
	tbl  int32 // index into the workload's table list
	part int32 // partition under the engine's placement (= site when shared-nothing)
	// owner executes the action: the partition's core, or the coordinator when
	// the design runs actions on the coordinating core.
	owner topology.CoreID
	osock topology.SocketID
	// shard is the island that owns the key in the two-island executed layout.
	shard int32
	// firstOfTable marks the first action of its table in the transaction and
	// tableWrites whether any action of the transaction writes that table: the
	// centralized design takes one intention lock per table.
	firstOfTable bool
	tableWrites  bool
}

// txnRec is one transaction of the flattened stream.
type txnRec struct {
	coord  topology.CoreID
	sock   topology.SocketID
	home   int32 // coordinator's site (shared-nothing) or socket
	a0, a1 int32 // actions [a0, a1) of stream.acts
	s0, s1 int32 // sync points [s0, s1) of stream.syncs
	p0, p1 int32 // 2PC participant sites [p0, p1) of stream.parts
	writes int32
	// twoPC marks the transactions the 2PC replay commits: the multisite
	// writers, or every writer when the stream has none.
	twoPC bool
}

type syncRec struct {
	bytes  int
	c0, c1 int32 // participant cores [c0, c1) of stream.syncCores
}

// stream holds one block of a workload's transaction stream flattened into
// benchmark-owned buffers, which every block reuses.
type stream struct {
	gen *generator
	// per-table placement under the engine's placement, and the executed
	// layout (two socket-grained islands, keys range-partitioned).
	tableIdx map[string]int32
	tps      []*partition.TablePlacement
	exec     *partition.Placement
	top      *topology.Topology
	// sites is the number of 2PC sites: islands when shared-nothing, sockets
	// otherwise.
	sites         int
	sharedNothing bool
	centralized   bool
	// dataOriented designs (PLP, HWAware, ATraPos) dispatch a transaction to
	// the core owning the partition that does most of its work.
	dataOriented bool

	txns      []txnRec
	acts      []act
	syncs     []syncRec
	syncCores []topology.CoreID
	parts     []int
	// realMultisite reports whether the block has multisite writers of its
	// own; then exactly those are marked twoPC.
	realMultisite bool
}

// generator produces transaction n of a seed exactly as the workload's entry
// point does. engine.Run: round-robin coordinator over the alive cores, the
// site view of the coordinator's island. engine.RunExecuted: transaction n
// runs on executor n % islands, which is its home site. Both reseed the
// generator with Seed+n per transaction.
type generator struct {
	wl       *workload.Workload
	top      *topology.Topology
	level    topology.Level // island level of a shared-nothing design, 0 otherwise
	executed bool
	islands  []topology.Island // at level
	seed     int64
	vnsTxn   float64 // virtual ns one transaction advances the machine's clock by
	src      splitMix
	ctx      workload.GenContext
	alive    []topology.Core
}

func newGenerator(cfg engine.Config, executed bool, seed int64, vnsTxn float64) *generator {
	g := &generator{wl: cfg.Workload, top: cfg.Topology, executed: executed, seed: seed, vnsTxn: vnsTxn,
		alive: cfg.Topology.AliveCores()}
	if cfg.Design.IsSharedNothing() {
		g.level = cfg.IslandLevel
		g.islands = g.top.AliveIslandsAt(g.level)
	}
	g.ctx = workload.GenContext{Rng: rand.New(&g.src), NumSites: max(len(g.islands), 1)}
	return g
}

// next generates transaction n (1-based) and returns it with its coordinator.
// The transaction is the context's reusable one: consume it before the next call.
func (g *generator) next(n int) (*workload.Transaction, topology.Core) {
	coord := g.alive[n%len(g.alive)]
	if g.executed {
		// The executor's island is the home site; its cores take turns
		// coordinating in the priced layers' replays.
		g.ctx.HomeSite = n % len(g.islands)
		cores := g.islands[g.ctx.HomeSite].Cores
		coord = cores[(n/len(g.islands))%len(cores)]
	} else if g.level != 0 {
		g.ctx.HomeSite = g.top.IslandOf(coord.ID, g.level)
	}
	g.src.seed(g.seed + int64(n))
	g.ctx.At = vclock.Nanos(float64(n) * g.vnsTxn)
	return g.wl.Generate(&g.ctx), coord
}

func newStream(cfg engine.Config, executed bool, placement *partition.Placement, seed int64, vnsTxn float64) *stream {
	st := &stream{
		gen:           newGenerator(cfg, executed, seed, vnsTxn),
		tableIdx:      make(map[string]int32, len(cfg.Workload.Tables)),
		tps:           make([]*partition.TablePlacement, len(cfg.Workload.Tables)),
		exec:          partition.PerIsland(cfg.Topology, topology.LevelSocket, cfg.Workload.TableSpecs()),
		top:           cfg.Topology,
		sites:         cfg.Topology.Sockets(),
		sharedNothing: cfg.Design.IsSharedNothing(),
		centralized:   cfg.Design == engine.Centralized,
	}
	st.dataOriented = !st.sharedNothing && !st.centralized
	if st.sharedNothing {
		st.sites = cfg.Topology.NumIslandsAt(cfg.IslandLevel)
	}
	for i, td := range cfg.Workload.Tables {
		st.tableIdx[td.Schema.Name] = int32(i)
		st.tps[i] = placement.Tables[td.Schema.Name]
	}
	return st
}

// generateOnly runs the Generate calls of transactions [first, first+n) and
// nothing else; the caller puts one clock pair around it (workload.generate_ns).
func (st *stream) generateOnly(first, n int) {
	for i := first; i < first+n; i++ {
		st.gen.next(i)
	}
}

// fill generates transactions [first, first+n) again — same seeds, same
// transactions — copies them into the stream's buffers and resolves their
// routing.
func (st *stream) fill(first, n int) {
	st.txns, st.acts, st.syncs = st.txns[:0], st.acts[:0], st.syncs[:0]
	st.syncCores, st.parts = st.syncCores[:0], st.parts[:0]
	for seq := first; seq < first+n; seq++ {
		t, coord := st.gen.next(seq)
		if st.dataOriented && len(t.Actions) > 0 {
			a := dominantAction(t)
			tp := st.tps[st.tableIdx[a.Table]]
			if c, err := st.top.Core(tp.CoreFor(a.Key)); err == nil {
				coord = c
			}
		}
		tr := txnRec{coord: coord.ID, sock: coord.Socket, home: int32(coord.Socket),
			a0: int32(len(st.acts)), s0: int32(len(st.syncs)), p0: int32(len(st.parts))}
		if st.sharedNothing {
			tr.home = int32(st.gen.ctx.HomeSite)
		}
		st.parts = append(st.parts, int(tr.home))
		for i := range t.Actions {
			a := act{Action: t.Actions[i], tbl: st.tableIdx[t.Actions[i].Table]}
			tp := st.tps[a.tbl]
			a.part = int32(tp.PartitionFor(a.Key))
			a.owner = tp.Cores[a.part]
			if st.centralized || (st.sharedNothing && a.part == tr.home) {
				a.owner = coord.ID
			}
			a.osock = st.top.SocketOf(a.owner)
			a.shard = int32(st.exec.Tables[a.Table].PartitionFor(a.Key))
			a.firstOfTable = true
			for j := range t.Actions {
				if t.Actions[j].Table != a.Table {
					continue
				}
				if j < i {
					a.firstOfTable = false
				}
				a.tableWrites = a.tableWrites || t.Actions[j].Op.IsWrite()
			}
			if a.Op.IsWrite() {
				tr.writes++
				// Only shared-nothing instances are 2PC sites of their own.
				if st.sharedNothing && !containsInt(st.parts[tr.p0:], int(a.part)) {
					st.parts = append(st.parts, int(a.part))
				}
			}
			st.acts = append(st.acts, a)
		}
		tr.a1 = int32(len(st.acts))
		for _, sp := range t.SyncPoints {
			sr := syncRec{bytes: sp.Bytes, c0: int32(len(st.syncCores))}
			for _, ai := range sp.Actions {
				if ai >= 0 && ai < len(t.Actions) {
					st.syncCores = append(st.syncCores, st.acts[int(tr.a0)+ai].owner)
				}
			}
			sr.c1 = int32(len(st.syncCores))
			st.syncs = append(st.syncs, sr)
		}
		if len(t.SyncPoints) == 0 {
			// A transaction without a synchronization point still gets one
			// rendezvous over the cores it touches, so numa.sync_point_ns is
			// measured on every workload's core footprint.
			sr := syncRec{bytes: 64, c0: int32(len(st.syncCores))}
			for j := tr.a0; j < tr.a1; j++ {
				st.syncCores = append(st.syncCores, st.acts[j].owner)
			}
			sr.c1 = int32(len(st.syncCores))
			st.syncs = append(st.syncs, sr)
		}
		tr.s1 = int32(len(st.syncs))
		tr.p1 = int32(len(st.parts))
		st.txns = append(st.txns, tr)
	}
	st.pick2PC()
}

// pick2PC marks the transactions the 2PC replay commits. A block with
// multisite writers uses exactly those, with their real participants; one
// without (TATP, YCSB) uses every writer, its single participant joined by the
// next site so the protocol has someone to talk to.
func (st *stream) pick2PC() {
	st.realMultisite = false
	for i := range st.txns {
		if t := &st.txns[i]; t.writes > 0 && t.p1-t.p0 > 1 {
			t.twoPC, st.realMultisite = true, true
		}
	}
	if st.realMultisite || st.sites < 2 {
		return
	}
	// Participants live in one shared slice, so padding rebuilds it.
	parts := make([]int, 0, 2*len(st.txns))
	for i := range st.txns {
		t := &st.txns[i]
		home := st.parts[t.p0]
		t.p0 = int32(len(parts))
		parts = append(parts, home)
		if t.writes > 0 {
			t.twoPC = true
			parts = append(parts, (home+1)%st.sites)
		}
		t.p1 = int32(len(parts))
	}
	st.parts = parts
}

// dominantAction is the first action of the table the transaction touches
// most (ties to the table met first): engine.dominantAction, private there.
func dominantAction(t *workload.Transaction) workload.Action {
	best, bestCount := 0, 0
	for i := range t.Actions {
		count := 0
		for j := range t.Actions {
			if t.Actions[j].Table == t.Actions[i].Table {
				if j < i {
					count = -1 // counted at its first occurrence
					break
				}
				count++
			}
		}
		if count > bestCount {
			best, bestCount = i, count
		}
	}
	return t.Actions[best]
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
