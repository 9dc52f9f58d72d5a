package core

import (
	"math"

	"atrapos/internal/device"
	"atrapos/internal/numa"
	"atrapos/internal/topology"
	"atrapos/internal/wal"
)

// WorkloadShape is the measured workload profile the granularity scorer
// consumes. The engine's monitor fills it from one sealed epoch's
// transaction-shape counters (Stats.MultisiteShare and friends); the offline
// sweeps fill it synthetically.
type WorkloadShape struct {
	// MultisiteShare is the fraction of transactions whose actions cross
	// instance boundaries at the current deployment, in [0,1].
	MultisiteShare float64
	// ActionsPerTxn / WritesPerTxn are the average action and write counts.
	ActionsPerTxn float64
	WritesPerTxn  float64
	// SyncBytes is the average synchronization-point payload of one multisite
	// transaction.
	SyncBytes int
	// HotWriteShare is the hottest write-key histogram slot's share of all
	// writes (Stats.HotWriteShare) and OverwriteShare the fraction of writes
	// that re-wrote a row their own transaction had already written
	// (Stats.OverwriteShare). They estimate how much of the logical write
	// volume the write-combining accumulator collapses before a physical
	// flush; zero leaves the coalescing term conservative (no savings).
	HotWriteShare  float64
	OverwriteShare float64
}

// GranularityModel prices candidate island levels for a shared-nothing
// deployment, using the same core-granular machinery the engine charges at
// run time and the fig-islands sweep measures offline: CoreAtomicCost and
// CoreDRAMCost for the instance-locality of shared state, CoreMessageCost for
// action shipping and two-phase commit, and SyncPointCostAt for the
// synchronization-point rendezvous. Scores are differential: the
// level-independent row work is excluded, so the hysteresis margin compares
// only what actually changes with the granularity.
type GranularityModel struct {
	Domain *numa.Domain
	// The log's group-commit price (wal.FlushCost, wal.GroupSize) enters two
	// level-dependent effects: the amortized flush a 2PC participant pays per
	// prepare, and the group-commit imbalance of coarse islands — with one log
	// shared by m member cores, the full flush of every group lands on the
	// same member (commit order round-robins the members deterministically),
	// so the island's busiest core pays almost every full flush while a
	// per-core log spreads them evenly. Throughput is committed work divided
	// by the busiest core's time, so the scorer prices the busiest member's
	// flush bill.
	//
	// Devices optionally binds the scorer to the machine's log-device map:
	// candidate levels then pay a commit-latency term priced from the devices
	// their island logs would bind to — the device's flush service latency
	// times the group-commit concentration (how many cores' commits funnel
	// into one flush path at that level) divided by the device's queue depth.
	// A wiring that leaves devices idle (a coarse level funnelling every
	// commit through its home island's device) scores worse than one that
	// spreads flushes across them, which is what moves the fine-vs-coarse
	// crossover with the storage profile. Nil skips the term.
	Devices *device.Map
	// CoalesceRecords mirrors the engine's write-combining accumulator knob
	// (wal.Config.CoalesceRecords). When positive, the flush/device term is
	// scaled by the expected fraction of logical writes that survive
	// coalescing, estimated from the shape's hot-key concentration and
	// overwrite share — fewer, fatter physical flushes shrink exactly the
	// commit-latency term that decides fine vs coarse on scarce devices.
	CoalesceRecords int
}

// coalesceSurvival estimates the fraction of logical write volume that
// reaches a physical flush with the write-combining accumulator enabled:
// overwrites within a transaction vanish outright, and the hot fraction h of
// the remaining writes lands on keys shared by roughly h*R other buffered
// writes per R-record flush epoch, collapsing to one net delta. Zero-valued
// shape knobs yield 1 (no predicted savings) so an engine without monitored
// write-shape data scores exactly as before.
func (g GranularityModel) coalesceSurvival(shape WorkloadShape) float64 {
	if g.CoalesceRecords <= 0 {
		return 1
	}
	h := shape.HotWriteShare
	o := shape.OverwriteShare
	if h <= 0 && o <= 0 {
		return 1
	}
	if h > 1 {
		h = 1
	}
	if o > 1 {
		o = 1
	}
	r := float64(g.CoalesceRecords)
	d := (1 - o) * ((1 - h) + h/(1+h*r))
	if d < 0.05 {
		d = 0.05
	}
	if d > 1 {
		d = 1
	}
	return d
}

// flushShare is the amortized (ride-along) group-commit cost per commit.
const flushShare = float64(wal.FlushCost) / float64(wal.GroupSize)

// LevelBreakdown is one candidate level's score split into the model's four
// terms, the explanation the planner's decision log carries for every
// evaluation. Total is the terms summed in the model's fixed order (it is
// bit-identical to the single-accumulator Score of earlier versions); a term
// whose preconditions do not hold contributes exactly 0. Levels with no
// alive islands have Total = +Inf and zero terms.
type LevelBreakdown struct {
	Level topology.Level
	// Total is the score: Locality + TxnState + Commit + Comm.
	Total float64
	// Locality is the instance-locality term (shared state + row payload
	// against the island home, averaged over members).
	Locality float64
	// TxnState is the transaction-state stripe term (begin/commit touches,
	// centralized at machine level).
	TxnState float64
	// Commit is the group-commit / device bill (flush imbalance, device
	// service and queue-wait concentration, scaled by coalescing survival).
	Commit float64
	// Comm is the communication term (remote round trips, 2PC, sync points).
	Comm float64
}

// Score predicts the per-transaction overhead of deploying one instance per
// island at the given level under the given workload shape. Lower is better.
// Levels with no alive islands score +Inf. It is Breakdown's Total.
func (g GranularityModel) Score(level topology.Level, shape WorkloadShape) float64 {
	return g.Breakdown(level, shape).Total
}

// Breakdown prices one candidate level and reports each term separately.
//
// The terms mirror the engine's actual charges:
//
//   - instance locality: every action touches the instance's shared state
//     (lock table stripe, log tail) and data homed on the island's first
//     core; members on other dies or sockets of a coarse island pay the
//     transfer surcharge. Begin/commit touch the
//     transaction-state stripe, which the machine level centralizes.
//   - communication: at multisite share s, remote actions pay round-trip
//     messages between islands, writing transactions run 2PC over the
//     expected participant set, and participants rendezvous at the
//     synchronization point — all priced with the hierarchical per-hop
//     machinery, so die islands of one socket are cheaper to coordinate than
//     islands on different sockets.
func (g GranularityModel) Breakdown(level topology.Level, shape WorkloadShape) LevelBreakdown {
	b := LevelBreakdown{Level: level}
	top := g.Domain.Top
	islands := top.AliveIslandsAt(level)
	n := len(islands)
	if n == 0 {
		b.Total = math.Inf(1)
		return b
	}
	k := shape.ActionsPerTxn
	if k <= 0 {
		k = 1
	}

	// Instance locality: per-action shared-state atomic plus two cache lines
	// of row payload against the island home, averaged over member cores.
	var state float64
	members := 0
	for _, isl := range islands {
		home := isl.Cores[0]
		for _, c := range isl.Cores {
			state += float64(g.Domain.CoreAtomicCost(c.ID, home.ID)) +
				2*float64(g.Domain.CoreDRAMCost(c.ID, home.Socket))
			members++
		}
	}
	if members == 0 {
		b.Total = math.Inf(1)
		return b
	}
	state /= float64(members)
	b.Locality = k * state

	// Transaction-state stripe: begin and commit. Sub-machine levels keep it
	// striped per socket (local); the machine level shares one central list
	// whose cache line ping-pongs between the participating sockets.
	if level == topology.LevelMachine && len(top.AliveSockets()) > 1 {
		h := islands[0].Cores[0].ID
		var sum float64
		alive := top.AliveCores()
		for _, c := range alive {
			sum += float64(g.Domain.CoreAtomicCost(c.ID, h))
		}
		b.TxnState = 2 * sum / float64(len(alive))
	} else {
		b.TxnState = 2 * float64(numa.LocalAtomic)
	}

	// Group-commit cost: the busiest member of an island whose log is shared
	// by m cores pays min(m, G)/G of the full flushes plus the ride-along
	// share; a single-member island spreads them evenly. Without a device
	// map the full flush costs the flat wal.FlushCost. With one, the same
	// imbalance formula is priced per island from the device its log binds
	// to — service replaces FlushCost (never both: the engine's flush path
	// pays exactly one of them too) — plus a queue-wait surcharge: a device
	// absorbs the commit streams of the cores funnelled into it up to its
	// queue depth, and beyond that full flushes wait. Funneling is what the
	// level decides (a machine-grained wiring concentrates every core on its
	// home island's device and leaves the rest idle), so the surcharge is
	// what moves the crossover with the storage profile.
	if shape.WritesPerTxn > 0 {
		// With the write-combining accumulator enabled, only the surviving
		// net-delta fraction of the write volume reaches the device; the
		// whole flush bill scales down with it. Survival is 1 without
		// coalescing (or without monitored write-shape data), leaving the
		// scores untouched.
		survive := g.coalesceSurvival(shape)
		const group = wal.GroupSize
		m := members / n
		if m < 1 {
			m = 1
		}
		busiest := m
		if busiest > group {
			busiest = group
		}
		if g.Devices == nil {
			b.Commit = survive * (float64(wal.FlushCost)*float64(busiest)/float64(group) + flushShare)
		} else {
			var bill float64
			for _, isl := range islands {
				dev := g.Devices.DeviceFor(top.DieOf(isl.Cores[0].ID))
				// Cores whose commits reach dev at this level: members of
				// every island whose log binds to the same device.
				streams := 0
				for _, other := range islands {
					if g.Devices.DeviceFor(top.DieOf(other.Cores[0].ID)) == dev {
						streams += len(other.Cores)
					}
				}
				q := dev.Spec().QueueDepth
				if q < 1 {
					q = 1
				}
				concentration := float64(streams) / float64(q)
				if concentration < 1 {
					concentration = 1
				}
				svc := float64(dev.Service(wal.WriteRecordSize * group))
				// busiest full-flush shares + one ride-along + (conc-1)
				// expected queue waits, all per commit.
				bill += svc / float64(group) * (float64(busiest) + concentration)
			}
			b.Commit = survive * bill / float64(n)
		}
	}

	// Communication: only multisite transactions pay it, and only when there
	// is more than one instance to cross into.
	if n > 1 && shape.MultisiteShare > 0 {
		var msgSum float64
		pairs := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := islands[i].Cores[0].ID, islands[j].Cores[0].ID
				msgSum += float64(g.Domain.CoreMessageCost(a, b) + g.Domain.CoreMessageCost(b, a))
				pairs++
			}
		}
		roundTrip := msgSum / float64(pairs)
		remote := (k - 1) * float64(n-1) / float64(n)
		comm := remote * roundTrip
		participants := 1 + remote
		if participants > float64(n) {
			participants = float64(n)
		}
		if shape.WritesPerTxn > 0 {
			// 2PC: prepare and decision round trips plus the prepare and end
			// flushes on every remote participant's log.
			comm += (participants - 1) * (2*roundTrip + 2*flushShare)
		}
		if shape.SyncBytes > 0 {
			nSync := int(math.Ceil(participants))
			if nSync > n {
				nSync = n
			}
			if nSync > 1 {
				homes := make([]topology.CoreID, nSync)
				for i := 0; i < nSync; i++ {
					homes[i] = islands[i].Cores[0].ID
				}
				comm += float64(g.Domain.SyncPointCostAt(homes, shape.SyncBytes))
			}
		}
		b.Comm = shape.MultisiteShare * comm
	}
	// Summed left-to-right in the historical accumulation order, so Total is
	// bit-identical to the pre-breakdown single-accumulator score (terms that
	// did not apply add exactly +0.0, the identity).
	b.Total = b.Locality + b.TxnState + b.Commit + b.Comm
	return b
}

// Best prices every island level that is structurally distinct on the
// machine and returns the cheapest one, with every level's breakdown, finest
// first. Near-ties (within tieMargin, relatively) resolve to the finer level,
// matching the sweep's empirical preference for fine islands when
// coordination is free; pass 0 to pick the strict minimum.
func (g GranularityModel) Best(shape WorkloadShape, tieMargin float64) (topology.Level, []LevelBreakdown) {
	levels := g.Domain.Top.DistinctLevels()
	bds := make([]LevelBreakdown, len(levels))
	for i, l := range levels {
		bds[i] = g.Breakdown(l, shape)
	}
	best := bds[0]
	for _, b := range bds[1:] {
		if b.Total < best.Total*(1-tieMargin) {
			best = b
		}
	}
	return best.Level, bds
}
