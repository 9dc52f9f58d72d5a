package engine

import (
	"sort"

	"atrapos/internal/core"
	"atrapos/internal/numa"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/workload"
)

// DerivePlacement computes a workload- and hardware-aware placement from the
// static information ATraPos extracts before running: the transaction flow
// graphs and the class mix. It synthesizes the workload trace the cost model
// expects (per-table loads and synchronization-point signatures) and runs the
// same two-step search the adaptive mechanism uses at run time — Algorithm 1
// to balance resource utilization, and, when hardwareAware is set, Algorithm 2
// to co-locate the partitions that synchronize with each other. With
// hardwareAware false the placement step is skipped, which is the
// hardware-oblivious "Workload-aware" strategy of Figure 6.
func DerivePlacement(wl *workload.Workload, top *topology.Topology, hardwareAware bool) *partition.Placement {
	domain := numa.NewDomain(top)
	naive := partition.NaivePerCore(top, wl.TableSpecs())
	maxKeys := make(map[string]schema.Key, len(wl.Tables))
	for _, spec := range wl.TableSpecs() {
		maxKeys[spec.Name] = schema.KeyFromInt(spec.MaxKey)
	}
	planner := core.NewPlanner(core.CostModel{Domain: domain}, core.DefaultSubPartitions)

	stats := syntheticStats(wl, naive, maxKeys)
	partitioned := planner.ChoosePartitioning(naive, stats, maxKeys)
	if err := partitioned.Validate(); err != nil {
		return naive
	}
	if !hardwareAware {
		return partitioned
	}
	// Re-derive the synchronization signatures against the new partition
	// boundaries before optimizing the placement.
	stats2 := syntheticStats(wl, partitioned, maxKeys)
	placed := planner.ChoosePlacement(partitioned, stats2)
	if err := placed.Validate(); err != nil {
		return partitioned
	}
	return placed
}

// syntheticStats builds the Stats the cost model consumes from the static
// workload description: every transaction class contributes load to the
// tables its flow graph touches (uniformly over the key space, weighted by
// the class mix and the expected action counts), and every flow-graph
// synchronization point contributes signatures between the partitions that
// own aligned key fractions.
func syntheticStats(wl *workload.Workload, p *partition.Placement, maxKeys map[string]schema.Key) *core.Stats {
	monitor := core.NewMonitor(core.DefaultSubPartitions)
	monitor.RegisterPlacement(p, maxKeys)

	mix := wl.ClassWeights(0)
	// Classes are visited in sorted order: the float total and, through the
	// monitor's first-seen participant order, the placement search's result
	// would otherwise depend on Go's map iteration order.
	classes := make([]string, 0, len(mix))
	for class := range mix {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	var totalMix float64
	for _, class := range classes {
		if w := mix[class]; w > 0 {
			totalMix += w
		}
	}
	if totalMix <= 0 {
		totalMix = 1
	}
	const samples = 64
	for _, class := range classes {
		share := mix[class]
		if share <= 0 {
			continue
		}
		g, ok := wl.Graph(class)
		if !ok {
			continue
		}
		weight := share / totalMix
		for _, node := range g.Nodes {
			spec, ok := wl.TableDef(node.Table)
			if !ok {
				continue
			}
			expected := float64(node.MinCount+node.MaxCount) / 2
			cost := vclock.Nanos(weight * expected * 1000)
			if cost <= 0 {
				cost = 1
			}
			for k := 0; k < samples; k++ {
				key := schema.KeyFromInt(spec.MaxKey * int64(2*k+1) / int64(2*samples))
				monitor.RecordAction(node.Table, key, cost)
			}
		}
		for _, sp := range g.Syncs {
			for k := 0; k < samples; k++ {
				frac := float64(2*k+1) / float64(2*samples)
				var refs []core.PartitionRef
				for _, ni := range sp.Nodes {
					if ni < 0 || ni >= len(g.Nodes) {
						continue
					}
					table := g.Nodes[ni].Table
					spec, ok := wl.TableDef(table)
					if !ok {
						continue
					}
					tp, ok := p.Table(table)
					if !ok {
						continue
					}
					key := schema.KeyFromInt(int64(float64(spec.MaxKey) * frac))
					refs = append(refs, core.PartitionRef{Table: table, Partition: tp.PartitionFor(key)})
				}
				if len(refs) > 1 {
					// Weight frequent classes more by recording them more often.
					times := int(weight*10) + 1
					for i := 0; i < times; i++ {
						monitor.RecordSync(refs, sp.Bytes)
					}
				}
			}
		}
	}
	return monitor.Seal()
}
