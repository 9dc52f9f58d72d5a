package core

import (
	"sort"

	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// Planner chooses partitioning and placement schemes from observed statistics,
// implementing the two-step search strategy of Section V-C.
type Planner struct {
	Model CostModel
	// SubPartitions is the sub-partition granularity the statistics were
	// collected at; it bounds how finely Algorithm 1 can split partitions.
	SubPartitions int
	// PreserveIdle makes ChoosePartitioning keep the current placement of
	// tables that received no load in the statistics window, so they diff as
	// unchanged and repartitioning skips them. The run-time adaptive planner
	// sets it: at run time an idle table says nothing about the future and
	// migrating it is pure cost. Static derivation (DerivePlacement) leaves
	// it off: there the statistics are synthesized from the full workload
	// description, so an unloaded table really is expected to stay cold and
	// is packed into a single partition.
	PreserveIdle bool
}

// NewPlanner builds a planner over the given cost model.
func NewPlanner(model CostModel, subPartitions int) *Planner {
	if subPartitions <= 0 {
		subPartitions = DefaultSubPartitions
	}
	return &Planner{Model: model, SubPartitions: subPartitions}
}

// subRange is one sub-partition flattened out of the current placement: its
// key range and its observed load.
type subRange struct {
	lo, hi schema.Key
	cost   vclock.Nanos
}

// flatten converts the per-partition sub-partition statistics of one table
// into an ordered list of key sub-ranges with their loads.
func flatten(tp *partition.TablePlacement, stats [][]SubLoad, maxKey schema.Key, subParts int) []subRange {
	var out []subRange
	for p := range tp.Bounds {
		lo := tp.Bounds[p]
		hi := maxKey
		if p+1 < len(tp.Bounds) {
			hi = tp.Bounds[p+1]
		}
		if hi <= lo {
			hi = lo + 1
		}
		span := (uint64(hi-lo) + uint64(subParts) - 1) / uint64(subParts)
		if span == 0 {
			span = 1
		}
		for sp := 0; sp < subParts; sp++ {
			slo := lo + schema.Key(uint64(sp)*span)
			shi := slo + schema.Key(span)
			if shi > hi || sp == subParts-1 {
				shi = hi
			}
			if slo >= hi {
				break
			}
			var cost vclock.Nanos
			if p < len(stats) && sp < len(stats[p]) {
				cost = stats[p][sp].Cost
			}
			out = append(out, subRange{lo: slo, hi: shi, cost: cost})
		}
	}
	return out
}

// ChoosePartitioning implements Algorithm 1: group sub-partitions into new
// partitions that balance resource utilization. The number of cores assigned
// to each table is proportional to the table's share of the total load (at
// least one), and within a table the sub-partitions are packed greedily so
// that every new partition carries roughly the same load, followed by an
// iterative improvement step that moves boundary sub-partitions toward
// under-utilized partitions.
//
// The returned placement assigns partitions to cores round-robin; call
// ChoosePlacement afterwards to optimize the assignment.
func (pl *Planner) ChoosePartitioning(current *partition.Placement, stats *Stats, maxKeys map[string]schema.Key) *partition.Placement {
	cores := pl.Model.Domain.Top.AliveCores()
	if len(cores) == 0 {
		return current.Clone()
	}
	tables := current.TableNames()
	if len(tables) == 0 {
		return current.Clone()
	}

	// Distribute cores across tables proportionally to their load. Tables
	// that received no load in the monitoring window keep a single partition
	// but do not consume core budget: their idle partition can share a core
	// with a loaded one without affecting utilization.
	totalCost := stats.TotalCost()
	coreShare := make(map[string]int, len(tables))
	assigned := 0
	loaded := 0
	for _, name := range tables {
		if totalCost > 0 && stats.TableCost(name) == 0 {
			coreShare[name] = 1
			continue
		}
		loaded++
		share := 1
		if totalCost > 0 {
			share = int(float64(len(cores)) * float64(stats.TableCost(name)) / float64(totalCost))
		} else {
			share = len(cores) / len(tables)
		}
		if share < 1 {
			share = 1
		}
		coreShare[name] = share
		assigned += share
	}
	// Trim overshoot so the total number of partitions stays near the core count.
	for assigned > len(cores) && assigned > loaded {
		trimmed := false
		for _, name := range tables {
			if totalCost > 0 && stats.TableCost(name) == 0 {
				continue
			}
			if coreShare[name] > 1 && assigned > len(cores) {
				coreShare[name]--
				assigned--
				trimmed = true
			}
		}
		if !trimmed {
			break
		}
	}

	// Assign cores to the loaded tables first, so every loaded partition gets
	// its own core before idle partitions (which carry no work) are placed.
	out := partition.NewPlacement()
	nextCore := 0
	assign := func(name string) {
		tp := current.Tables[name]
		subs := flatten(tp, stats.Sub[name], maxKeys[name], pl.SubPartitions)
		nParts := coreShare[name]
		if nParts > len(subs) && len(subs) > 0 {
			nParts = len(subs)
		}
		if nParts < 1 {
			nParts = 1
		}
		boundsIdx := packGreedy(subs, nParts)
		boundsIdx = improveBalance(subs, boundsIdx)

		bounds := make([]schema.Key, len(boundsIdx))
		for i, si := range boundsIdx {
			if si == 0 {
				bounds[i] = 0
			} else {
				bounds[i] = subs[si].lo
			}
		}
		coresFor := make([]topology.CoreID, len(bounds))
		for i := range coresFor {
			coresFor[i] = cores[(nextCore+i)%len(cores)].ID
		}
		nextCore += len(bounds)
		out.Tables[name] = &partition.TablePlacement{Table: name, Bounds: bounds, Cores: coresFor}
	}
	for _, name := range tables {
		if totalCost > 0 && stats.TableCost(name) == 0 {
			continue
		}
		assign(name)
	}
	// With PreserveIdle, tables that received no load keep their current
	// placement verbatim (their partitions carry no work, so they cannot
	// unbalance anything, and an identical placement means the
	// repartitioning diff skips them entirely). Only when a current
	// assignment touches a dead socket is the table re-assigned.
	top := pl.Model.Domain.Top
	for _, name := range tables {
		if totalCost > 0 && stats.TableCost(name) == 0 {
			if pl.PreserveIdle {
				tp := current.Tables[name]
				allAlive := true
				for _, c := range tp.Cores {
					if !top.Alive(top.SocketOf(c)) {
						allAlive = false
						break
					}
				}
				if allAlive {
					out.Tables[name] = tp.Clone()
					continue
				}
			}
			assign(name)
		}
	}
	return out
}

// packGreedy groups the ordered sub-partitions into nParts contiguous groups
// whose loads are close to the target average; it returns the index of the
// first sub-partition of each group (the first is always 0).
func packGreedy(subs []subRange, nParts int) []int {
	if len(subs) == 0 {
		return []int{0}
	}
	if nParts >= len(subs) {
		out := make([]int, len(subs))
		for i := range out {
			out[i] = i
		}
		return out
	}
	var total vclock.Nanos
	for _, s := range subs {
		total += s.cost
	}
	target := float64(total) / float64(nParts)
	bounds := []int{0}
	var acc float64
	for i, s := range subs {
		remainingGroups := nParts - len(bounds)
		remainingSubs := len(subs) - i
		if acc >= target && remainingGroups > 0 && remainingSubs > remainingGroups {
			bounds = append(bounds, i)
			acc = 0
		}
		acc += float64(s.cost)
	}
	return bounds
}

// groupLoads returns the load of every group defined by boundsIdx.
func groupLoads(subs []subRange, boundsIdx []int) []float64 {
	loads := make([]float64, len(boundsIdx))
	for g := range boundsIdx {
		start := boundsIdx[g]
		end := len(subs)
		if g+1 < len(boundsIdx) {
			end = boundsIdx[g+1]
		}
		for i := start; i < end; i++ {
			loads[g] += float64(subs[i].cost)
		}
	}
	return loads
}

// improveBalance is the iterative improvement loop of Algorithm 1: repeatedly
// move one boundary sub-partition from an overloaded group to an adjacent
// under-utilized group while the imbalance metric improves.
func improveBalance(subs []subRange, boundsIdx []int) []int {
	imbalance := func(idx []int) float64 {
		loads := groupLoads(subs, idx)
		var sum float64
		for _, l := range loads {
			sum += l
		}
		avg := sum / float64(len(loads))
		var ru float64
		for _, l := range loads {
			d := l - avg
			if d < 0 {
				d = -d
			}
			ru += d
		}
		return ru
	}
	best := append([]int(nil), boundsIdx...)
	bestRU := imbalance(best)
	for iter := 0; iter < 64; iter++ {
		improved := false
		loads := groupLoads(subs, best)
		// Find the most under-utilized group and try to pull a sub-partition
		// from a neighbour into it.
		order := make([]int, len(loads))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return loads[order[i]] < loads[order[j]] })
		for _, g := range order {
			candidates := []func([]int, int) []int{
				func(b []int, g int) []int { return shiftFromRight(b, g, len(subs)) },
				shiftFromLeft,
			}
			for _, cand := range candidates {
				next := cand(best, g)
				if next == nil {
					continue
				}
				if ru := imbalance(next); ru < bestRU {
					best = next
					bestRU = ru
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// shiftFromRight grows group g by one sub-partition taken from group g+1.
func shiftFromRight(bounds []int, g, nSubs int) []int {
	if g+1 >= len(bounds) {
		return nil
	}
	next := append([]int(nil), bounds...)
	// Group g+1 must keep at least one sub-partition.
	upper := nSubs
	if g+2 < len(bounds) {
		upper = bounds[g+2]
	}
	if bounds[g+1]+1 >= upper {
		return nil
	}
	next[g+1]++
	return next
}

// shiftFromLeft grows group g by one sub-partition taken from group g-1.
func shiftFromLeft(bounds []int, g int) []int {
	if g == 0 {
		return nil
	}
	next := append([]int(nil), bounds...)
	// Group g-1 must keep at least one sub-partition.
	if bounds[g]-1 <= bounds[g-1] {
		return nil
	}
	next[g]--
	return next
}

// ChoosePlacement implements Algorithm 2: starting from the partitioning
// chosen by Algorithm 1 (or any placement), iteratively switch the cores of
// partitions involved in costly synchronization points so they land on the
// same socket, keeping every switch that lowers the global synchronization
// cost TS(S,W).
func (pl *Planner) ChoosePlacement(p *partition.Placement, stats *Stats) *partition.Placement {
	best := p.Clone()
	bestTS := pl.Model.TransactionSync(best, stats)
	bestRU := pl.Model.ResourceUtilization(best, stats)
	if len(stats.Syncs) == 0 {
		return best
	}
	// Order signatures by their current cost, most expensive first.
	for iter := 0; iter < 128; iter++ {
		improved := false
		syncs := append([]SyncStat(nil), stats.Syncs...)
		sort.Slice(syncs, func(i, j int) bool {
			return pl.Model.SyncCost(best, syncs[i])*float64(syncs[i].Count) >
				pl.Model.SyncCost(best, syncs[j])*float64(syncs[j].Count)
		})
		for _, sync := range syncs {
			if pl.Model.SyncCost(best, sync) == 0 {
				continue
			}
			cand := pl.colocate(best, sync)
			if cand == nil {
				continue
			}
			ts := pl.Model.TransactionSync(cand, stats)
			ru := pl.Model.ResourceUtilization(cand, stats)
			// A switch must lower the synchronization cost without undoing
			// the load balance Algorithm 1 established.
			if ts < bestTS && ru <= bestRU*1.02+1 {
				best = cand
				bestTS = ts
				bestRU = ru
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// colocate builds a candidate placement that moves the participants of sync
// onto the island that already hosts the largest share of them, by swapping
// core assignments with partitions currently on that island. The target is
// chosen hierarchically: first the socket hosting most participants, then —
// on machines with sub-socket structure — the die of that socket hosting
// most of them, so participants land on the cheapest enclosing island the
// swap space allows. Swap partners on the preferred die are tried before
// partners elsewhere on the target socket.
func (pl *Planner) colocate(p *partition.Placement, sync SyncStat) *partition.Placement {
	top := pl.Model.Domain.Top
	// Pick the target socket (and preferred die within it): the ones hosting
	// most participants.
	count := make(map[topology.SocketID]int)
	dieCount := make(map[topology.DieID]int)
	for _, ref := range sync.Participants {
		tp, ok := p.Tables[ref.Table]
		if !ok || ref.Partition < 0 || ref.Partition >= len(tp.Cores) {
			continue
		}
		count[top.SocketOf(tp.Cores[ref.Partition])]++
		dieCount[top.DieOf(tp.Cores[ref.Partition])]++
	}
	// Ties go to the lowest socket and die ID, so the choice never depends on
	// map iteration order.
	var target topology.SocketID = -1
	bestCount := -1
	for s, c := range count {
		if top.Alive(s) && (c > bestCount || (c == bestCount && s < target)) {
			bestCount = c
			target = s
		}
	}
	if target < 0 {
		return nil
	}
	targetDie := topology.InvalidDie
	bestDie := -1
	for d, c := range dieCount {
		if top.SocketOfDie(d) == target && (c > bestDie || (c == bestDie && d < targetDie)) {
			bestDie = c
			targetDie = d
		}
	}
	cand := p.Clone()
	changed := false
	for _, ref := range sync.Participants {
		tp, ok := cand.Tables[ref.Table]
		if !ok || ref.Partition < 0 || ref.Partition >= len(tp.Cores) {
			continue
		}
		cur := tp.Cores[ref.Partition]
		if top.SocketOf(cur) == target {
			if top.DieOf(cur) == targetDie || targetDie == topology.InvalidDie {
				continue
			}
			// Already on the right socket but on another die: try to tighten
			// onto the preferred die; failing that, the socket placement stands.
			if swapOnto(cand, ref, cur, target, targetDie, top, sync.Participants) {
				changed = true
			}
			continue
		}
		// Find a partition currently on the target island (of any table) that
		// is not itself a participant, and swap cores with it.
		if swapOnto(cand, ref, cur, target, targetDie, top, sync.Participants) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return cand
}

// swapOnto moves ref's partition onto the target socket, preferring cores of
// the preferred die (pass InvalidDie for no preference). It swaps with a
// non-participant partition already there, or falls back to an unoccupied
// core, keeping the number of partitions per core unchanged either way so the
// balance achieved by Algorithm 1 is preserved.
func swapOnto(p *partition.Placement, ref PartitionRef, from topology.CoreID, target topology.SocketID, preferredDie topology.DieID, top *topology.Topology, exclude []PartitionRef) bool {
	isExcluded := func(table string, idx int) bool {
		for _, e := range exclude {
			if e.Table == table && e.Partition == idx {
				return true
			}
		}
		return false
	}
	fromDie := top.DieOf(from)
	// Two passes: cores of the preferred die first, then the rest of the
	// target socket. On flat machines the passes coincide and the second is
	// skipped.
	passes := []func(c topology.CoreID) bool{
		func(c topology.CoreID) bool { return top.SocketOf(c) == target && top.DieOf(c) == preferredDie },
		func(c topology.CoreID) bool { return top.SocketOf(c) == target },
	}
	if preferredDie == topology.InvalidDie {
		passes = passes[1:]
	}
	// The occupied set only feeds the no-swap-partner fallback and a
	// successful assignment returns immediately, so one build serves both
	// passes.
	var occupied map[topology.CoreID]bool
	for _, accept := range passes {
		for _, name := range p.TableNames() {
			tp := p.Tables[name]
			for i, c := range tp.Cores {
				if !accept(c) || c == from || isExcluded(name, i) {
					continue
				}
				// Swapping within the preferred die is a no-op improvement;
				// require the partner to actually change ref's island.
				if top.DieOf(c) == fromDie && top.SocketOf(c) == top.SocketOf(from) {
					continue
				}
				tp.Cores[i] = from
				p.Tables[ref.Table].Cores[ref.Partition] = c
				return true
			}
		}
		// No swap partner in this pass: move onto a core of the pass's island
		// that currently hosts no partition at all, which also preserves the
		// balance.
		if occupied == nil {
			occupied = make(map[topology.CoreID]bool)
			for _, tp := range p.Tables {
				for _, c := range tp.Cores {
					occupied[c] = true
				}
			}
		}
		for _, c := range top.CoresOn(target) {
			if !accept(c.ID) || occupied[c.ID] {
				continue
			}
			p.Tables[ref.Table].Cores[ref.Partition] = c.ID
			return true
		}
	}
	return false
}

// Plan runs the full two-step search and returns the proposed placement.
func (pl *Planner) Plan(current *partition.Placement, stats *Stats, maxKeys map[string]schema.Key) *partition.Placement {
	partitioned := pl.ChoosePartitioning(current, stats, maxKeys)
	return pl.ChoosePlacement(partitioned, stats)
}
