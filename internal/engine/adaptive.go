package engine

import (
	"atrapos/internal/core"
	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/partition"
	"atrapos/internal/schema"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// adaptiveState wires the ATraPos monitoring and adaptation machinery of the
// core package into the engine: the run loop records actions and
// synchronization points into the active monitor epoch and does one boundary
// check per transaction; the transaction that crosses a monitoring boundary
// runs the planner inline — it consults the interval controller, seals the
// monitor epoch, runs the two-step search and, when the cost model predicts an
// improvement, moves only the partitions the plan diff names and installs the
// new placement's snapshot. The paper's claim that this is cheap enough to run
// continuously lives in virtual time: the migration pause is charged only to
// the cores whose partitions actually moved; cores owning unchanged partitions
// keep working.
type adaptiveState struct {
	e        *Engine
	monitor  *core.Monitor
	planner  *core.Planner
	executor *core.Executor
	maxKeys  map[string]schema.Key

	// granModel scores island levels when the design adapts its level:
	// instead of moving partitions between cores, the planner re-derives the
	// whole instance wiring at a different island level when the monitored
	// multisite share crosses the scorer's crossover.
	granModel core.GranularityModel
	// nextCheck is the virtual time of the next monitoring boundary, compared
	// against the high-water-mark clock once per transaction.
	nextCheck vclock.Nanos

	controller    *core.IntervalController
	lastCheckAt   vclock.Nanos
	lastCommitted int64
	// cooldown counts monitoring intervals to sit out after a repartitioning,
	// so the system observes the effect of one decision before making the
	// next; it damps oscillation between near-equivalent placements.
	cooldown int
	// hwEpoch is the topology liveness epoch observed at the last boundary;
	// a change (a socket failed or was restored) forces an evaluation even
	// when throughput looks stable, so the ATraPos pipeline re-expands onto
	// restored capacity instead of waiting for an instability signal.
	hwEpoch uint64

	// Metrics-sampler deltas: the previous boundary's cumulative log
	// counters, per-core committed counts, and the multisite share of the
	// last sealed epoch. The sampler piggybacks on the planner's boundary
	// pipeline, so it adds nothing to the per-transaction path.
	lastLogStats      wal.Stats
	lastShare         float64
	prevCoreCommitted []int64

	// diffs holds one record per migration of the current run; summarize
	// derives the result's repartition count, time and cost share from it.
	diffs []RepartitionDiff
}

// monitoringCostPerAction is the virtual cost charged per monitored action (or
// per recorded transaction shape); it models the thread-local array updates.
const monitoringCostPerAction numa.Cost = 15

// granHysteresis is the relative score improvement a candidate island level
// must promise before the planner re-wires the machine: the band around the
// measured crossover inside which the current level is kept, so the system
// does not thrash between near-equivalent granularities.
const granHysteresis = 0.10

// granTieMargin resolves scorer near-ties toward the finer level, matching
// the sweep's empirical preference for fine islands when coordination is free.
const granTieMargin = 0.02

// RepartitionDiff records one migration: a repartitioning of the placement
// or an online island-level change. It says when it happened, how much of the
// placement it touched and what it cost — the per-event record behind the
// "repartitioning cost scales with the diff" property — and, for a level
// change, what the planner measured and decided and how many of the previous
// wiring's logs it reused.
type RepartitionDiff struct {
	// At is the virtual time of the event.
	At vclock.Nanos
	// ChangedTables / UnchangedTables split the tables by whether the plan
	// touched them; the executor moves no row of an unchanged table.
	ChangedTables   int
	UnchangedTables int
	// ReboundTables counts tables whose partition boundaries changed.
	ReboundTables int
	// MovedPartitions is the number of partitions whose key range or owning
	// core changed — the size of the migration.
	MovedPartitions int
	// ReusedLockTables is always 0 and RebuiltLockTables the new placement's
	// partition count: every install builds fresh lock tables. Both stay for
	// the repo benchmark, which reports their share.
	ReusedLockTables  int
	RebuiltLockTables int
	// AffectedCores is how many cores paused for the migration; everyone else
	// kept executing against the previous snapshot.
	AffectedCores int
	// Cost is the modeled virtual time of the migration (charged to each
	// affected core).
	Cost vclock.Nanos

	// The remaining fields describe a level change and are zero for a
	// repartitioning inside one wiring.

	// From and To are the island levels before and after.
	From, To topology.Level
	// MultisiteShare is the sealed epoch's measured multisite share that
	// triggered the decision.
	MultisiteShare float64
	// ReusedLogs / RebuiltLogs count per-island write-ahead logs carried over
	// from, respectively built fresh against, the previous wiring;
	// ReboundDevices counts the reused logs whose device binding the
	// re-wiring had to re-derive.
	ReusedLogs, RebuiltLogs, ReboundDevices int
	// WinnerScores and RunnerUpScores are the granularity scorer's per-term
	// breakdowns for the level the planner switched to and for the next-best
	// candidate it rejected — the explanation of the decision. On a
	// hardware-forced rebuild the winner may equal the current level.
	WinnerScores, RunnerUpScores core.LevelBreakdown
}

func newAdaptiveState(e *Engine, p *partition.Placement) *adaptiveState {
	maxKeys := e.wl.MaxKeys()
	execCfg := core.DefaultExecutorConfig()
	if tc := e.cfg.TimeCompression; tc > 1 {
		execCfg.PerRowCost = max(1, numa.Cost(float64(execCfg.PerRowCost)/tc))
		execCfg.PerActionCost = max(1, numa.Cost(float64(execCfg.PerActionCost)/tc))
	}
	a := &adaptiveState{
		e:        e,
		monitor:  core.NewMonitor(0),
		maxKeys:  maxKeys,
		executor: core.NewExecutor(execCfg, e.domain, e.store),
	}
	a.planner = core.NewPlanner(core.CostModel{Domain: e.domain}, a.monitor.SubPartitions())
	// At run time an idle table says nothing about future load; keeping its
	// placement makes it diff as unchanged, so repartitioning skips it.
	a.planner.PreserveIdle = true
	a.granModel = e.granularityModel()
	a.controller = core.NewIntervalController(e.cfg.AdaptiveInterval)
	// Workload order first: a table's monitor index is then its dense table
	// index, which execute records under (Monitor.RecordIn).
	for _, td := range e.wl.Tables {
		a.monitor.Register(td.Schema.Name, nil, 0)
	}
	a.monitor.RegisterPlacement(p, maxKeys)
	a.nextCheck = a.controller.Interval()
	return a
}

// reset prepares the adaptive state for a fresh run.
func (a *adaptiveState) reset() {
	a.controller = core.NewIntervalController(a.e.cfg.AdaptiveInterval)
	a.nextCheck = a.controller.Interval()
	a.lastCheckAt = 0
	a.lastCommitted = 0
	a.cooldown = 0
	a.hwEpoch = a.e.cfg.Topology.Epoch()
	a.lastLogStats = a.e.logStats()
	a.lastShare = 0
	a.prevCoreCommitted = nil
	a.diffs = nil
	a.monitor.RegisterPlacement(a.e.snap.placement, a.maxKeys)
}

// summarize fills the run's repartition count, time and cost share from the
// migration records; busy is the cores' total busy time. Each migration
// charged its cost to every affected core.
func (a *adaptiveState) summarize(res *Result, busy vclock.Nanos) {
	var charged vclock.Nanos
	for i := range a.diffs {
		d := &a.diffs[i]
		res.RepartitionTime += d.Cost
		charged += d.Cost * vclock.Nanos(d.AffectedCores)
	}
	res.Repartitions = int64(len(a.diffs))
	res.RepartitionDiffs = a.diffs
	if busy > 0 {
		res.AdaptationCostShare = float64(charged) / float64(busy)
	}
}

// noteBoundary is the run loop's per-transaction obligation to the adaptation
// pipeline: one comparison of the high-water-mark clock against the next
// monitoring boundary. The transaction that crosses the boundary evaluates it
// before the next one is issued; committed and aborted are the run's counters
// so far.
func (a *adaptiveState) noteBoundary(committed, aborted int64) {
	if a.e.cfg.Adaptive && a.e.virtualNow() >= a.nextCheck {
		a.adaptOnce(committed, aborted)
	}
}

// recordTxn records one executed transaction's shape into the active monitor
// epoch (adaptive-granularity mode): action and write counts, whether it was
// multisite, and its synchronization payload. Recording takes no lock and
// allocates nothing, so the shared-nothing hot path stays lean; the modeled
// bookkeeping cost is charged to the coordinating core.
func (a *adaptiveState) recordTxn(coord topology.CoreID, t *workload.Transaction) {
	if a.e.row.route != routeIsland {
		return
	}
	writes, overwrites := 0, 0
	for i := range t.Actions {
		if !t.Actions[i].Op.IsWrite() {
			continue
		}
		writes++
		// Feed the write-key histogram (hot-key concentration) and count
		// overwrites: a write whose (table, key) an earlier action of the
		// same transaction already wrote. Transactions are a handful of
		// actions, so the quadratic scan stays cheaper than any map — and
		// allocation-free, which the hot path requires.
		a.monitor.RecordWriteKey(uint64(t.Actions[i].Key))
		for j := 0; j < i; j++ {
			if t.Actions[j].Op.IsWrite() &&
				t.Actions[j].Key == t.Actions[i].Key &&
				t.Actions[j].Table == t.Actions[i].Table {
				overwrites++
				break
			}
		}
	}
	bytes := 0
	for i := range t.SyncPoints {
		bytes += t.SyncPoints[i].Bytes
	}
	a.monitor.RecordTxn(len(t.Actions), writes, overwrites, t.MultiSite, bytes)
	a.e.charge(coord, vclock.Management, monitoringCostPerAction)
}

// adaptOnce processes one monitoring boundary: it measures the throughput of
// the interval, consults the interval controller, and when the controller
// asks for an evaluation it runs the two-step search and repartitions if the
// cost model predicts an improvement. committedSoFar and abortedSoFar are the
// run's transaction counters at the boundary.
func (a *adaptiveState) adaptOnce(committedSoFar, abortedSoFar int64) {
	e := a.e
	now := e.virtualNowExact()
	window := now - a.lastCheckAt
	if window <= 0 {
		window = a.controller.Interval()
	}
	committedDelta := committedSoFar - a.lastCommitted
	throughput := float64(committedDelta) / window.Seconds()
	a.lastCommitted = committedSoFar
	a.lastCheckAt = now
	a.monitor.AdvanceWindow(window)
	a.recordSample(now, window, throughput, committedSoFar, abortedSoFar)

	decision := a.controller.Observe(throughput)
	a.nextCheck = now + a.controller.Interval()
	if a.cooldown > 0 {
		a.cooldown--
		if e.row.route == routeIsland {
			cur := e.snap.wiring
			a.logDecision(now, cur.epoch, cur.level, cur.level, "cooldown", a.lastShare, nil)
		}
		return
	}
	// The parametric shared-nothing design adapts the island granularity
	// instead of the placement: seal the epoch, read the multisite share and
	// re-score the candidate levels every interval (the scorer is cheap).
	if e.row.route == routeIsland {
		a.adaptGranularity(now)
		return
	}
	// A change in the hardware topology is always grounds for an evaluation,
	// independent of the throughput history: a partition owned by a core on a
	// failed socket must move, and a liveness-epoch change (a socket failed or
	// came back) means the capacity the placement was derived for no longer
	// matches the machine — restored sockets in particular produce no
	// instability signal of their own, the work simply is not routed there.
	if ep := e.cfg.Topology.Epoch(); ep != a.hwEpoch {
		a.hwEpoch = ep
		decision = core.Evaluate
	}
	if decision != core.Evaluate && usesDeadCore(e.snap.placement, e.cfg.Topology) {
		decision = core.Evaluate
	}
	if decision != core.Evaluate {
		return
	}

	// Seal the monitoring epoch: the search below reads the sealed statistics
	// while new transactions record into the flipped buffer.
	stats := a.monitor.Seal()
	if stats.TotalCost() == 0 {
		return
	}
	snap := e.snap
	current := snap.placement
	proposed := a.planner.Plan(current, stats, a.maxKeys)
	if err := proposed.Validate(); err != nil {
		return
	}
	// Never install a placement that routes work to dead hardware.
	if err := proposed.ValidateAlive(e.cfg.Topology); err != nil {
		return
	}
	if !a.improves(current, proposed, stats) {
		return
	}
	diff := partition.Diff(current, proposed)
	if diff.Empty() {
		return
	}
	a.migrate(now, snap, proposed, diff, snap.wiring, RepartitionDiff{})
}

// migrate is the tail adaptOnce (partitions move between cores) and
// changeLevel (the machine is re-wired at another island level) share: execute
// the physical repartitioning, charge its cost only to the cores whose
// partitions the diff touched (per Section VI-D a repartitioning takes a
// fraction of a second, not a global stall — everyone else keeps executing),
// install the new snapshot, register the monitoring arrays of every table
// against the new placement (both callers sealed the epoch just before, so
// no array holds a count yet) and restart the interval controller behind a
// two-interval cooldown. It appends the migration's record: rec carries the
// level-change fields (zero for a repartitioning), migrate fills in the rest.
// Callers bail out before migrate, never after: once the executor has touched
// the physical tables the snapshot is installed unconditionally, so no
// transaction sees a placement whose boundaries no longer match the trees.
// A plan the executor refuses migrates nothing and records nothing.
func (a *adaptiveState) migrate(now vclock.Nanos, snap *stateSnapshot, desired *partition.Placement, diff *partition.PlanDiff,
	wiring *islandWiring, rec RepartitionDiff) {
	e := a.e
	outcome, err := a.executor.Execute(core.BuildPlan(snap.placement, desired, e.cfg.Topology))
	if err != nil {
		return
	}
	affected := diff.AffectedCores()
	for _, c := range affected {
		e.charge(c, vclock.Management, numa.Cost(outcome.Cost))
	}
	if len(affected) > 0 {
		e.noteTime(affected[0])
	}
	if tr := e.tracer; tr != nil {
		tr.Ring().Record(obs.Span{Start: now, Dur: outcome.Cost, Kind: obs.KindPlannerMigrate, Epoch: uint32(wiring.epoch), Arg: int64(len(affected))})
	}
	e.install(desired, e.activePartitionsPerCore(desired, now), wiring)
	a.monitor.RegisterPlacement(desired, a.maxKeys)
	a.controller.Repartitioned()
	a.nextCheck = now + a.controller.Interval()
	a.cooldown = 2
	rec.At = now
	rec.ChangedTables = diff.ChangedTables()
	rec.UnchangedTables = diff.UnchangedTables()
	rec.ReboundTables = diff.ReboundTables()
	rec.MovedPartitions = diff.MovedPartitions()
	rec.RebuiltLockTables = desired.TotalPartitions()
	rec.AffectedCores = len(affected)
	rec.Cost = outcome.Cost
	a.diffs = append(a.diffs, rec)
}

// recordSample appends one planner-boundary metrics observation to the
// tracer. The per-core committed counters and cumulative log stats it reads
// are the ones the run's bookkeeping already maintains, so enabling the
// sampler adds nothing to the per-transaction path.
func (a *adaptiveState) recordSample(now, window vclock.Nanos, throughput float64, committedSoFar, abortedSoFar int64) {
	e := a.e
	tr := e.tracer
	if tr == nil {
		return
	}
	snap := e.snap
	s := obs.Sample{
		At:             now,
		Epoch:          snap.wiring.epoch,
		Level:          e.Design().String(),
		TPS:            throughput,
		Committed:      committedSoFar,
		Aborted:        abortedSoFar,
		MultisiteShare: a.lastShare,
		Clocks:         e.clockSpread(),
	}
	if e.row.route == routeIsland {
		s.Level = snap.wiring.level.String()
	}
	logNow := e.logStats()
	logDelta := logNow.Sub(a.lastLogStats)
	a.lastLogStats = logNow
	if logDelta.LogicalRecords > 0 {
		// Fraction of the window's logical records the write-combining
		// accumulators folded away before any physical flush.
		s.CoalesceRatio = float64(logDelta.CoalescedRecords) / float64(logDelta.LogicalRecords)
	}
	var backlog vclock.Nanos
	for _, d := range e.deviceList() {
		backlog += d.BacklogAt(now)
	}
	s.DeviceBacklogNs = float64(backlog)
	// Per-island committed TPS from the per-core counters, grouped by the
	// installed wiring's site map (one machine-wide entry for a design that
	// is not island-routed).
	nCores := len(e.accounts)
	if a.prevCoreCommitted == nil {
		a.prevCoreCommitted = make([]int64, nCores)
	}
	nIslands := snap.numSites()
	s.IslandTPS = make([]float64, nIslands)
	for c := 0; c < nCores; c++ {
		cum := e.accounts[c].committed
		delta := cum - a.prevCoreCommitted[c]
		a.prevCoreCommitted[c] = cum
		if site := snap.wiring.siteOf(topology.CoreID(c)); site >= 0 && site < nIslands {
			s.IslandTPS[site] += float64(delta)
		}
	}
	if secs := window.Seconds(); secs > 0 {
		for i := range s.IslandTPS {
			s.IslandTPS[i] /= secs
		}
	}
	tr.RecordSample(s)
}

// adaptGranularity processes one monitoring boundary of the parametric
// shared-nothing design: it reads the sealed epoch's multisite share, prices
// every island level the machine distinguishes with the granularity scorer,
// and re-wires the machine when a different level beats the current one by
// the hysteresis margin. A wiring that references failed hardware is always
// re-derived, independent of the scores.
func (a *adaptiveState) adaptGranularity(now vclock.Nanos) {
	e := a.e
	tr := e.tracer
	stats := a.monitor.Seal()
	snap := e.snap
	cur := snap.wiring
	if tr != nil {
		tr.Ring().Record(obs.Span{Start: now, Kind: obs.KindPlannerSeal,
			Epoch: uint32(cur.epoch), Arg: stats.Txns})
	}
	// Hardware changed under the wiring: a site homed on a failed socket, a
	// restored socket whose islands the wiring does not cover yet, or an
	// island log flushing through a failed device. Any of these forces a
	// re-wiring at the best level, independent of the scores.
	hardware := wiringStale(cur, e.cfg.Topology) || wiringBindsFailedDevice(cur)
	if stats.Txns == 0 && !hardware {
		a.logDecision(now, cur.epoch, cur.level, cur.level, "idle", a.lastShare, nil)
		return
	}
	shape := core.WorkloadShape{
		MultisiteShare: stats.MultisiteShare(),
		ActionsPerTxn:  stats.ActionsPerTxn(),
		WritesPerTxn:   stats.WritesPerTxn(),
		SyncBytes:      stats.SyncBytesPerMultisiteTxn(),
		HotWriteShare:  stats.HotWriteShare(),
		OverwriteShare: stats.OverwriteShare(),
	}
	a.lastShare = shape.MultisiteShare
	// The per-term breakdowns explain the decision: they feed the planner
	// decision log and, on a change, the RepartitionDiff record.
	best, bds := a.granModel.Best(shape, granTieMargin)
	winner, runnerUp := pickWinnerRunnerUp(bds, best)
	if tr != nil {
		tr.Ring().Record(obs.Span{Start: now, Kind: obs.KindPlannerScore,
			Epoch: uint32(cur.epoch), Arg: int64(len(bds))})
	}
	if hardware {
		// Rebuild at the best level (which may be the current one — the
		// rebuild homes every site on alive hardware and re-homes island logs
		// bound to failed devices either way; reused logs carry their records
		// across the move).
		a.logDecision(now, cur.epoch, cur.level, best, "hardware-rebuild", shape.MultisiteShare, bds)
		a.changeLevel(best, shape.MultisiteShare, now, winner, runnerUp)
		return
	}
	if best == cur.level {
		a.logDecision(now, cur.epoch, cur.level, best, "hold-current", shape.MultisiteShare, bds)
		return
	}
	// The current level may be a structurally redundant level on this
	// machine (e.g. a socket-grained start on a one-socket part) that
	// DistinctLevels — and therefore bds — does not list; it is scored
	// directly then.
	curScore, listed := 0.0, false
	for _, b := range bds {
		if b.Level == cur.level {
			curScore, listed = b.Total, true
		}
	}
	if !listed {
		curScore = a.granModel.Score(cur.level, shape)
	}
	// Hysteresis around the measured crossover: switch only when the
	// candidate clearly beats the current level, so the system does not
	// oscillate between near-equivalent granularities while the share
	// hovers at the crossover.
	if curScore <= 0 || winner.Total >= (1-granHysteresis)*curScore {
		a.logDecision(now, cur.epoch, cur.level, best, "hysteresis-hold", shape.MultisiteShare, bds)
		return
	}
	a.logDecision(now, cur.epoch, cur.level, best, "change", shape.MultisiteShare, bds)
	a.changeLevel(best, shape.MultisiteShare, now, winner, runnerUp)
}

// pickWinnerRunnerUp selects the breakdown of the winning level and of the
// best-scoring other level (the rejected alternative the decision explains
// itself against).
func pickWinnerRunnerUp(bds []core.LevelBreakdown, best topology.Level) (winner, runnerUp core.LevelBreakdown) {
	first := true
	for _, b := range bds {
		if b.Level == best {
			winner = b
			continue
		}
		if first || b.Total < runnerUp.Total {
			runnerUp = b
			first = false
		}
	}
	return winner, runnerUp
}

// logDecision appends one planner decision (with its per-candidate score
// breakdown) to the tracer's decision log; a no-op without a tracer.
func (a *adaptiveState) logDecision(now vclock.Nanos, epoch uint64, current, best topology.Level, verdict string, share float64, bds []core.LevelBreakdown) {
	tr := a.e.tracer
	if tr == nil {
		return
	}
	d := obs.Decision{
		At:        now,
		Epoch:     epoch,
		Current:   current.String(),
		Best:      best.String(),
		Verdict:   verdict,
		Multisite: share,
	}
	if len(bds) > 0 {
		d.Candidates = make([]obs.LevelScore, 0, len(bds))
		for _, b := range bds {
			d.Candidates = append(d.Candidates, obs.LevelScore{
				Level: b.Level.String(), Total: b.Total, Locality: b.Locality,
				TxnState: b.TxnState, Commit: b.Commit, Comm: b.Comm,
			})
		}
	}
	tr.RecordDecision(d)
}

// changeLevel re-wires the machine to the given island level: it derives the
// per-island placement and the wiring (bumped topology epoch) and migrates
// only what the cross-level diff names, reusing the per-island logs of
// islands whose core sets are unchanged; the next transaction starts on the
// new wiring.
func (a *adaptiveState) changeLevel(to topology.Level, share float64, now vclock.Nanos, winner, runnerUp core.LevelBreakdown) {
	e := a.e
	top := e.cfg.Topology
	snap := e.snap
	cur := snap.wiring
	desired := partition.PerIsland(top, to, e.wl.TableSpecs())
	if err := desired.Validate(); err != nil {
		return
	}
	if err := desired.ValidateAlive(top); err != nil {
		return
	}
	// The storage half of the liveness invariant: refuse a wiring that could
	// only bind an island log to a failed device. AliveDeviceFor re-homes
	// around individual failures, so this only fires when no alive device is
	// reachable at all.
	if err := desired.ValidateAliveDevices(top, e.devices); err != nil {
		return
	}
	diff := partition.Diff(snap.placement, desired)
	// Drain the write-combining accumulators before deriving the new log set:
	// reused island logs carry their records (and possibly a new device binding)
	// across the move, and a buffered net delta must not straddle the
	// re-wiring — the old wiring's commits become durable on the old wiring's
	// devices before any log changes hands.
	cur.logs.Drain(now)
	wiring := e.buildWiring(to, cur.epoch+1, cur)
	if len(wiring.sites) == 0 {
		return
	}
	// A table too small to split once per island would make site indices
	// disagree with partition indices; skip the re-wiring — like every
	// bail-out, before migrate touches the physical tables.
	if tp, ok := desired.Table(desired.TableNames()[0]); ok && len(tp.Cores) != len(wiring.sites) {
		return
	}
	a.migrate(now, snap, desired, diff, wiring, RepartitionDiff{
		From:           cur.level,
		To:             to,
		MultisiteShare: share,
		ReusedLogs:     wiring.reusedLogs,
		RebuiltLogs:    wiring.rebuiltLogs,
		ReboundDevices: wiring.reboundDevices,
		WinnerScores:   winner,
		RunnerUpScores: runnerUp,
	})
}

// wiringStale reports whether the installed wiring no longer matches the
// machine's alive islands at its own level: a site homed on a failed socket,
// an island whose alive member set changed, or an alive island the wiring
// does not cover (a restored socket waiting to be re-expanded onto). It is
// the compute half of the granularity planner's hardware-change trigger.
func wiringStale(w *islandWiring, top *topology.Topology) bool {
	islands := top.AliveIslandsAt(w.level)
	if len(islands) != len(w.siteCores) {
		return true
	}
	for i, isl := range islands {
		if !sameCores(isl.Cores, w.siteCores[i]) {
			return true
		}
	}
	return false
}

// wiringBindsFailedDevice reports whether any island log of the wiring
// flushes through a failed device — the storage half of the hardware-change
// trigger.
func wiringBindsFailedDevice(w *islandWiring) bool {
	for i := 0; i < w.logs.NumLogs(); i++ {
		if d := w.logs.Log(i).Device(); d != nil && d.Failed() {
			return true
		}
	}
	return false
}

// usesDeadCore reports whether any partition is owned by a core on a failed
// socket, which ATraPos treats as a hardware-topology change.
func usesDeadCore(p *partition.Placement, top *topology.Topology) bool {
	for _, tp := range p.Tables {
		for _, c := range tp.Cores {
			if !top.Alive(top.SocketOf(c)) {
				return true
			}
		}
	}
	return false
}

// improves applies the cost model to decide whether the proposed placement is
// worth the repartitioning pause: the combined balance + synchronization
// score must drop by at least 5%.
func (a *adaptiveState) improves(current, proposed *partition.Placement, stats *core.Stats) bool {
	// Moving off a failed socket is always worth the pause.
	if usesDeadCore(current, a.e.cfg.Topology) && !usesDeadCore(proposed, a.e.cfg.Topology) {
		return true
	}
	model := a.planner.Model
	weight := float64(numa.ByteTransferPerHop)
	curScore := model.ResourceUtilization(current, stats) + weight*model.TransactionSync(current, stats)
	newScore := model.ResourceUtilization(proposed, stats) + weight*model.TransactionSync(proposed, stats)
	if curScore <= 0 {
		return false
	}
	return newScore < 0.95*curScore
}
