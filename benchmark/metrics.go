package main

import (
	"atrapos/internal/engine"
	"atrapos/internal/vclock"
)

// perLayer lists the per-layer metrics the traced run emits, for every
// workload. Names are <module>.<metric>; the unit says the time base: "ns" is
// host time per call (median over the replayed blocks), "vns" is virtual time
// from engine.Result.Breakdown, everything else is an exact count or a ratio.
// The catalogue in README.md gives each metric's source call.
var perLayer = []metricDef{
	{name: "workload.generate_ns", unit: "ns", better: "lower"},
	{name: "workload.actions_per_txn", unit: "count", better: "lower"},
	{name: "workload.write_share", unit: "ratio", better: "lower"},
	{name: "workload.multisite_share", unit: "ratio", better: "lower"},

	{name: "lock.acquire_ns", unit: "ns", better: "lower"},
	{name: "lock.release_all_ns", unit: "ns", better: "lower"},
	{name: "lock.acquires_per_txn", unit: "count", better: "lower"},
	{name: "lock.vns_per_txn", unit: "vns", better: "lower"},

	{name: "storage.read_ns", unit: "ns", better: "lower"},
	{name: "storage.write_ns", unit: "ns", better: "lower"},
	{name: "storage.repartition_ns_per_row", unit: "ns", better: "lower"},
	{name: "storage.ops_per_txn", unit: "count", better: "lower"},
	{name: "storage.vns_per_txn", unit: "vns", better: "lower"},

	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.flush_ns", unit: "ns", better: "lower"},
	{name: "wal.appends_per_txn", unit: "count", better: "lower"},
	{name: "wal.physical_flushes_per_ktxn", unit: "count", better: "lower"},
	{name: "wal.ride_along_share", unit: "ratio", better: "higher"},
	{name: "wal.coalesced_share", unit: "ratio", better: "higher"},
	{name: "wal.coalesce_overhead_ns_per_txn", unit: "ns", better: "lower"},
	{name: "wal.recover_ns_per_record", unit: "ns", better: "lower"},
	{name: "wal.vns_per_txn", unit: "vns", better: "lower"},

	{name: "device.flushes_per_ktxn", unit: "count", better: "lower"},
	{name: "device.queued_share", unit: "ratio", better: "lower"},
	{name: "device.wait_vns_per_flush", unit: "vns", better: "lower"},

	{name: "txn.begin_commit_ns", unit: "ns", better: "lower"},
	{name: "txn.twopc_ns", unit: "ns", better: "lower"},
	{name: "txn.twopc_per_ktxn", unit: "count", better: "lower"},
	{name: "txn.mgmt_vns_per_txn", unit: "vns", better: "lower"},

	{name: "numa.message_cost_ns", unit: "ns", better: "lower"},
	{name: "numa.sync_point_ns", unit: "ns", better: "lower"},
	{name: "numa.comm_vns_per_txn", unit: "vns", better: "lower"},
	{name: "numa.qpi_to_imc_ratio", unit: "ratio", better: "lower"},

	{name: "core.monitor_record_ns", unit: "ns", better: "lower"},
	{name: "core.seal_ns", unit: "ns", better: "lower"},
	{name: "core.plan_ns", unit: "ns", better: "lower"},
	{name: "core.execute_plan_ns", unit: "ns", better: "lower"},
	{name: "core.repartitions_per_mtxn", unit: "count", better: "lower"},
	{name: "core.adapt_cost_share", unit: "ratio", better: "lower"},

	{name: "partition.diff_ns", unit: "ns", better: "lower"},
	{name: "partition.apply_diff_ns", unit: "ns", better: "lower"},
	{name: "partition.moved_partitions_per_repartition", unit: "count", better: "lower"},
	{name: "partition.reused_lock_tables_share", unit: "ratio", better: "higher"},

	{name: "backend.get_ns", unit: "ns", better: "lower"},
	{name: "backend.put_ns", unit: "ns", better: "lower"},
	{name: "backend.commit_ns", unit: "ns", better: "lower"},
	{name: "backend.ship_ns", unit: "ns", better: "lower"},
	{name: "backend.ships_per_txn", unit: "count", better: "lower"},
	{name: "backend.comm_share", unit: "ratio", better: "lower"},
	{name: "backend.load_ns_per_row", unit: "ns", better: "lower"},

	{name: "obs.record_ns", unit: "ns", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "obs.dropped_share", unit: "ratio", better: "lower"},

	{name: "engine.ns_per_txn", unit: "ns", better: "lower"},
	{name: "engine.glue_ns_per_txn", unit: "ns", better: "lower"},
	{name: "engine.allocs_per_txn", unit: "count", better: "lower"},
	{name: "engine.bytes_per_txn", unit: "B", better: "lower"},
	{name: "engine.seg_ns_per_txn_max", unit: "ns", better: "lower"},
	{name: "engine.useful_fraction", unit: "ratio", better: "higher"},

	{name: "bench.span_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.replay_self_share", unit: "ratio", better: "lower"},
	{name: "bench.steal_share", unit: "ratio", better: "lower"},
	{name: "bench.seg_spread", unit: "ratio", better: "lower"},
}

// layerInputs is everything layerMetrics computes from.
type layerInputs struct {
	spec    spec
	cfg     engine.Config
	size    tracedSizing
	spans   []span
	shape   streamShape
	counted layerCounts
	lastX   *engine.ExecutedResult
	// host ns per transaction of the untraced, the traced and the
	// Tracing-flipped engine segments.
	plainNS, tracedNS, twinNS []float64
	allocsPerTxn, bytesPerTxn float64
	dropped, attempts         int64
	readsInPath               bool
	disturbance               disturbance
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the per-layer metrics from the spans, the stream's
// shape and the engine's own counters.
func layerMetrics(in layerInputs) map[string]metric {
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	out := make(map[string]metric, len(perLayer))
	put := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("metric not in the catalogue: " + name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	// perCallNS: median over the blocks of one span name's duration per call.
	perCallNS := func(span string) float64 { return median(perCall(in.spans, span)) }
	// perTxnNS: median over the blocks of the named spans' summed duration
	// per transaction of the block. A layer timed in two phases is named by
	// its phases, whose durations have the per-transaction clock reads taken
	// out; the parent span's has not.
	perTxnNS := func(names ...string) float64 {
		sums := map[string]float64{} // by block
		for _, s := range in.spans {
			for _, n := range names {
				if s.Name == n {
					sums[s.Trace] += float64(s.dur()) / float64(in.size.perBlock)
				}
			}
		}
		xs := make([]float64, 0, len(sums))
		for _, v := range sums {
			xs = append(xs, v)
		}
		return median(xs)
	}

	sh, c := in.shape, in.counted
	txns := float64(sh.txns)
	committed := float64(c.committed)
	priced := !in.spec.executed
	comp := func(k vclock.Component) float64 { return ratio(float64(c.breakdown[k]), committed) }

	put("workload.generate_ns", perCallNS("workload.generate"))
	put("workload.actions_per_txn", ratio(float64(sh.actions), txns))
	put("workload.write_share", ratio(float64(sh.writes), float64(sh.actions)))
	put("workload.multisite_share", ratio(float64(sh.multisite), txns))

	put("lock.acquire_ns", perCallNS("lock.acquire"))
	put("lock.release_all_ns", perCallNS("lock.release_all"))
	acquires := 0.0
	if priced {
		for _, s := range in.spans {
			if s.Name == "lock.acquire" {
				acquires += float64(s.Calls)
			}
		}
	}
	put("lock.acquires_per_txn", ratio(acquires, txns))
	put("lock.vns_per_txn", comp(vclock.Locking))

	put("storage.read_ns", perCallNS("storage.read"))
	put("storage.write_ns", perCallNS("storage.write"))
	put("storage.repartition_ns_per_row", perCallNS("storage.repartition"))
	if priced {
		put("storage.ops_per_txn", ratio(float64(sh.actions), txns))
	} else {
		put("storage.ops_per_txn", 0)
	}
	put("storage.vns_per_txn", comp(vclock.Execution))

	put("wal.append_ns", perCallNS("wal.append"))
	put("wal.flush_ns", perCallNS("wal.flush"))
	log := c.log
	logTxns := committed
	if in.lastX != nil {
		// An executed workload's log is the hash backend's value log.
		log, logTxns = in.lastX.Log, float64(in.lastX.Committed)
	}
	put("wal.appends_per_txn", ratio(float64(log.Appends), logTxns))
	put("wal.physical_flushes_per_ktxn", 1000*ratio(float64(log.PhysicalFlushes), logTxns))
	put("wal.ride_along_share", ratio(float64(log.RideAlongFlushes), float64(log.RideAlongFlushes+log.PhysicalFlushes)))
	put("wal.coalesced_share", ratio(float64(log.CoalescedRecords), float64(log.LogicalRecords)))
	// Coalescing on minus coalescing off, same calls: which of the two replayed
	// log sets has it on depends on the workload's own configuration.
	on, off := perTxnNS("wal.append", "wal.flush"), perTxnNS("wal.twin.append", "wal.twin.flush")
	if in.cfg.LogConfig == nil || in.cfg.LogConfig.CoalesceRecords == 0 {
		on, off = off, on
	}
	put("wal.coalesce_overhead_ns_per_txn", on-off)
	put("wal.recover_ns_per_record", perCallNS("wal.recover"))
	put("wal.vns_per_txn", comp(vclock.Logging))

	put("device.flushes_per_ktxn", 1000*ratio(float64(c.devFlushes), committed))
	put("device.queued_share", ratio(float64(c.devQueued), float64(c.devFlushes)))
	put("device.wait_vns_per_flush", ratio(float64(c.devWaitVNS), float64(c.devFlushes)))

	put("txn.begin_commit_ns", perCallNS("txn.begin_commit"))
	put("txn.twopc_ns", perCallNS("txn.twopc"))
	if sh.realMultisite {
		put("txn.twopc_per_ktxn", 1000*ratio(float64(sh.twoPC), txns))
	} else {
		put("txn.twopc_per_ktxn", 0)
	}
	put("txn.mgmt_vns_per_txn", comp(vclock.Management))

	put("numa.message_cost_ns", perCallNS("numa.message_cost"))
	put("numa.sync_point_ns", perCallNS("numa.sync_point"))
	put("numa.comm_vns_per_txn", comp(vclock.Communication))
	put("numa.qpi_to_imc_ratio", ratio(c.qpiToIMC, float64(c.segments)))

	put("core.monitor_record_ns", perCallNS("core.monitor_record"))
	put("core.seal_ns", perCallNS("core.seal"))
	put("core.plan_ns", perCallNS("core.plan"))
	put("core.execute_plan_ns", perCallNS("core.execute_plan"))
	put("core.repartitions_per_mtxn", 1e6*ratio(float64(c.repartitions), committed))
	put("core.adapt_cost_share", ratio(c.adaptShare, float64(c.segments)))

	put("partition.diff_ns", perCallNS("partition.diff"))
	put("partition.apply_diff_ns", perCallNS("partition.apply_diff"))
	put("partition.moved_partitions_per_repartition", ratio(float64(c.movedPartitions), float64(c.repartitions)))
	put("partition.reused_lock_tables_share", ratio(float64(c.reused), float64(c.reused+c.rebuilt)))

	put("backend.get_ns", perCallNS("backend.get"))
	put("backend.put_ns", perCallNS("backend.put"))
	put("backend.commit_ns", perCallNS("backend.commit"))
	shipNS := perCallNS("backend.ship")
	put("backend.ship_ns", shipNS)
	shipsPerTxn := 0.0
	commShare := 0.0
	if in.lastX != nil {
		shipsPerTxn = ratio(float64(sh.ships), txns)
		var total int64
		for _, v := range in.lastX.Components {
			total += v
		}
		commShare = ratio(float64(in.lastX.Components[vclock.Communication]), float64(total))
	}
	put("backend.ships_per_txn", shipsPerTxn)
	put("backend.comm_share", commShare)
	put("backend.load_ns_per_row", perCallNS("backend.load"))

	put("obs.record_ns", perCallNS("obs.record"))
	// Tracing on minus off over off: the workload's own configuration decides
	// which of the two engines traces.
	traceOn, traceOff := median(in.plainNS), median(in.twinNS)
	if !in.cfg.Tracing {
		traceOn, traceOff = traceOff, traceOn
	}
	put("obs.trace_overhead_share", ratio(traceOn-traceOff, traceOff))
	put("obs.dropped_share", ratio(float64(in.dropped), float64(in.attempts)))

	// Glue: the end-to-end busy time per transaction minus the replayed time
	// of the layers on this workload's path. An executed run keeps two
	// executors busy for its wall time, so its busy time is twice that.
	engineNS := median(in.plainNS)
	busyNS := engineNS
	replayed := perTxnNS("workload.generate")
	if priced {
		replayed += perTxnNS("lock.acquire", "lock.release_all") + perTxnNS("storage.write") +
			perTxnNS("wal.append", "wal.flush") + perTxnNS("txn.begin_commit")
		if in.readsInPath {
			replayed += perTxnNS("storage.read")
		}
		if sh.realMultisite && in.cfg.Design.IsSharedNothing() {
			replayed += perTxnNS("txn.twopc")
		}
		if in.cfg.Monitoring || in.cfg.Adaptive {
			replayed += perTxnNS("core.monitor_record")
		}
		if in.cfg.Tracing {
			replayed += perTxnNS("obs.record")
		}
	} else {
		busyNS *= 2
		replayed += perTxnNS("backend.put", "backend.commit") + shipsPerTxn*shipNS
		if in.readsInPath {
			replayed += perTxnNS("backend.get")
		}
	}
	put("engine.ns_per_txn", engineNS)
	put("engine.glue_ns_per_txn", busyNS-replayed)
	put("engine.allocs_per_txn", in.allocsPerTxn)
	put("engine.bytes_per_txn", in.bytesPerTxn)
	put("engine.seg_ns_per_txn_max", quantile(in.plainNS, 1))
	put("engine.useful_fraction", ratio(c.useful, float64(c.segments)))

	put("bench.span_overhead_share", ratio(median(in.tracedNS)-engineNS, engineNS))
	// The block spans' self time is the driver's own work inside a block:
	// regenerating, flattening and routing it, and the loops around the calls.
	var selfShares []float64
	for _, s := range in.spans {
		if s.Name == "block" && s.dur() > 0 {
			selfShares = append(selfShares, float64(selfNS(in.spans, s.ID))/float64(s.dur()))
		}
	}
	put("bench.replay_self_share", median(selfShares))
	put("bench.steal_share", in.disturbance.StealShare)
	put("bench.seg_spread", in.disturbance.SegSpread)
	return out
}
