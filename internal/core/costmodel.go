// Package core implements the paper's primary contribution: the ATraPos
// workload- and hardware-aware partitioning and placement mechanism. It
// contains the lightweight monitoring structures (Section V-D), the cost
// model combining resource utilization and transaction synchronization
// overhead (Section V-B), the two-step search strategy (Section V-C,
// Algorithms 1 and 2), the adaptive monitoring-interval controller and the
// repartitioning planner that turns a placement change into split, merge and
// rearrange actions.
//
// The package is engine-agnostic: it works on partition placements,
// aggregated workload statistics and a hardware topology, and returns new
// placements and repartitioning plans. The execution engine decides when to
// invoke it and applies its decisions.
package core

import (
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// PartitionRef identifies one logical partition of one table.
type PartitionRef struct {
	Table     string
	Partition int
}

// SubLoad is the observed cost of the work routed to one sub-partition.
type SubLoad struct {
	// Bounds are implied by the parent partition; Cost is the accumulated
	// execution cost (virtual ns) of the actions that hit this sub-partition.
	Cost vclock.Nanos
	// Actions is the number of actions observed.
	Actions int64
}

// SyncStat aggregates one synchronization-point signature: the set of
// partitions that had to exchange data, how often it occurred and how many
// bytes moved each time.
type SyncStat struct {
	Participants []PartitionRef
	Count        int64
	Bytes        int64 // average bytes per occurrence
}

// Stats is the aggregated dynamic workload information collected by the
// monitoring mechanism over one interval.
type Stats struct {
	// Sub holds per-table, per-partition, per-sub-partition loads.
	Sub map[string][][]SubLoad
	// Bounds holds the partition lower bounds the statistics were collected
	// under, so the loads can be re-mapped onto candidate placements with a
	// different partition structure.
	Bounds map[string][]schema.Key
	// MaxKeys holds the upper end of each table's key space.
	MaxKeys map[string]schema.Key
	// Syncs holds the synchronization-point signatures observed.
	Syncs []SyncStat
	// Window is the virtual time span the statistics cover.
	Window vclock.Nanos

	// Transaction-shape counters (RecordTxn): how many transactions the
	// interval saw, how many crossed instance boundaries, and their action
	// profile. They drive the adaptive-granularity scorer.
	Txns          int64
	MultisiteTxns int64
	Actions       int64
	Writes        int64
	// Overwrites counts writes that hit a row their own transaction had
	// already written (self-canceling or overwriting pairs).
	Overwrites int64
	// WriteHot is the hottest write-key histogram slot's count
	// (Monitor.RecordWriteKey); divided by Writes it approximates hot-key
	// concentration. Both feed the coalescing term of the granularity scorer.
	WriteHot int64
	// SyncBytes is the total synchronization-point payload of the interval's
	// multisite transactions.
	SyncBytes int64
}

// MultisiteShare returns the fraction of the interval's transactions that
// crossed instance boundaries, in [0,1].
func (s *Stats) MultisiteShare() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.MultisiteTxns) / float64(s.Txns)
}

// ActionsPerTxn returns the interval's average action count per transaction.
func (s *Stats) ActionsPerTxn() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Actions) / float64(s.Txns)
}

// WritesPerTxn returns the interval's average write count per transaction.
func (s *Stats) WritesPerTxn() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.Txns)
}

// OverwriteShare returns the fraction of the interval's writes that re-wrote
// a row their own transaction had already written, in [0,1].
func (s *Stats) OverwriteShare() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Overwrites) / float64(s.Writes)
}

// HotWriteShare returns the hottest write-key histogram slot's share of all
// recorded writes, in [0,1] — an upper-bound estimate of how concentrated the
// write keys are.
func (s *Stats) HotWriteShare() float64 {
	if s.Writes == 0 {
		return 0
	}
	h := float64(s.WriteHot) / float64(s.Writes)
	if h > 1 {
		h = 1
	}
	return h
}

// SyncBytesPerMultisiteTxn returns the average synchronization payload of one
// multisite transaction.
func (s *Stats) SyncBytesPerMultisiteTxn() int {
	if s.MultisiteTxns == 0 {
		return 0
	}
	return int(s.SyncBytes / s.MultisiteTxns)
}

// TotalCost returns the total execution cost across all sub-partitions.
func (s *Stats) TotalCost() vclock.Nanos {
	var total vclock.Nanos
	for _, parts := range s.Sub {
		for _, subs := range parts {
			for _, sl := range subs {
				total += sl.Cost
			}
		}
	}
	return total
}

// TableCost returns the total execution cost of one table.
func (s *Stats) TableCost(table string) vclock.Nanos {
	var total vclock.Nanos
	for _, subs := range s.Sub[table] {
		for _, sl := range subs {
			total += sl.Cost
		}
	}
	return total
}

// CostModel evaluates placements against observed statistics, implementing
// the formulas of Section V-B.
type CostModel struct {
	Domain *numa.Domain
}

// coreLoads computes RU(c) for every core under placement p: the sum of the
// costs of all actions that use partitions placed on that core.
// When the statistics carry the key bounds they were collected under, each
// sub-partition's load is re-mapped onto the candidate placement by its key
// range, so placements with a different partition structure are evaluated
// correctly; otherwise the loads are aligned by partition index.
func (m CostModel) coreLoads(p *partition.Placement, stats *Stats) map[topology.CoreID]float64 {
	loads := make(map[topology.CoreID]float64)
	// Every alive core is a candidate even if it currently has no partitions,
	// so under-utilized cores pull the average down as the paper intends.
	for _, c := range m.Domain.Top.AliveCores() {
		loads[c.ID] = 0
	}
	for table, tp := range p.Tables {
		partStats := stats.Sub[table]
		if len(tp.Cores) == 0 {
			continue
		}
		bounds := stats.Bounds[table]
		if bounds == nil {
			// No key information: align by partition index.
			for i, core := range tp.Cores {
				var cost float64
				if i < len(partStats) {
					for _, sl := range partStats[i] {
						cost += float64(sl.Cost)
					}
				}
				loads[core] += cost
			}
			continue
		}
		maxKey := stats.MaxKeys[table]
		for op, subs := range partStats {
			lo := schema.Key(0)
			if op < len(bounds) {
				lo = bounds[op]
			}
			hi := maxKey
			if op+1 < len(bounds) {
				hi = bounds[op+1]
			}
			if hi <= lo {
				hi = lo + 1
			}
			n := len(subs)
			if n == 0 {
				continue
			}
			span := uint64(hi-lo) / uint64(n)
			if span == 0 {
				span = 1
			}
			for sp, sl := range subs {
				if sl.Cost == 0 {
					continue
				}
				mid := lo + schema.Key(uint64(sp)*span+span/2)
				idx := tp.PartitionFor(mid)
				if idx < 0 {
					idx = 0
				}
				if idx >= len(tp.Cores) {
					idx = len(tp.Cores) - 1
				}
				loads[tp.Cores[idx]] += float64(sl.Cost)
			}
		}
	}
	return loads
}

// ResourceUtilization computes RU(S,W) = sum over cores of |RU(c) - RUavg|,
// the imbalance metric Algorithm 1 minimizes. Lower is better; 0 means the
// load is perfectly balanced.
func (m CostModel) ResourceUtilization(p *partition.Placement, stats *Stats) float64 {
	loads := m.coreLoads(p, stats)
	if len(loads) == 0 {
		return 0
	}
	// Float sums are taken in core order, not map order: the search compares
	// RU values against thresholds, and a last-bit difference must not be able
	// to flip a decision between two calls with the same inputs.
	ordered := make([]float64, 0, len(loads))
	for c, n := 0, m.Domain.Top.NumCores(); c < n; c++ {
		if l, ok := loads[topology.CoreID(c)]; ok {
			ordered = append(ordered, l)
		}
	}
	var sum float64
	for _, l := range ordered {
		sum += l
	}
	avg := sum / float64(len(ordered))
	var ru float64
	for _, l := range ordered {
		d := l - avg
		if d < 0 {
			d = -d
		}
		ru += d
	}
	return ru
}

// SyncCost computes the hierarchical generalization of the paper's
// C(s) = (nsocket(s)-1) * Distance(s) * Size(s) for one synchronization
// signature under placement p: islands are counted at the die level and each
// pair of participating islands contributes its socket hops plus its die
// hops scaled by how much cheaper a die crossing is than a socket crossing
// (DieByteTransferPerHop / ByteTransferPerHop). Co-locating participants on
// one socket therefore shrinks the cost, and co-locating them on one die
// drives it to zero — which is what makes the placement search prefer the
// cheapest enclosing island. On flat machines the formula reduces to the
// paper's socket-level one exactly.
func (m CostModel) SyncCost(p *partition.Placement, sync SyncStat) float64 {
	top := m.Domain.Top
	cores := make([]topology.CoreID, 0, len(sync.Participants))
	for _, ref := range sync.Participants {
		tp, ok := p.Tables[ref.Table]
		if !ok || len(tp.Cores) == 0 {
			continue
		}
		idx := ref.Partition
		if idx < 0 {
			idx = 0
		}
		if idx >= len(tp.Cores) {
			idx = len(tp.Cores) - 1
		}
		cores = append(cores, tp.Cores[idx])
	}
	const dieFrac = float64(numa.DieByteTransferPerHop) / float64(numa.ByteTransferPerHop)
	// Distinct dies, preserving first-seen order.
	uniq := cores[:0]
	for i, c := range cores {
		first := true
		for j := 0; j < i; j++ {
			if top.DieOf(cores[j]) == top.DieOf(c) {
				first = false
				break
			}
		}
		if first {
			uniq = append(uniq, c)
		}
	}
	if len(uniq) <= 1 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(uniq); i++ {
		for j := i + 1; j < len(uniq); j++ {
			sockHops, dieHops := top.CorePath(uniq[i], uniq[j])
			sum += float64(sockHops) + float64(dieHops)*dieFrac
			pairs++
		}
	}
	return float64(len(uniq)-1) * (sum / float64(pairs)) * float64(sync.Bytes)
}

// TransactionSync computes TS(S,W): the total synchronization overhead of the
// workload under placement p, weighting each signature by how often it occurred.
func (m CostModel) TransactionSync(p *partition.Placement, stats *Stats) float64 {
	var total float64
	for _, sync := range stats.Syncs {
		total += m.SyncCost(p, sync) * float64(sync.Count)
	}
	return total
}
