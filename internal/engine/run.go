package engine

import (
	"fmt"
	"math/rand"
	"time"

	"atrapos/internal/fault"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// RunOptions control one experiment run.
type RunOptions struct {
	// Transactions is the number of transactions to execute. Either
	// Transactions or Duration (or both) must be positive; the run stops at
	// whichever limit is hit first. A duration-driven run that sets no count
	// stops after maxRunTransactions at the latest.
	Transactions int
	// Duration stops the run when the engine's virtual time passes it.
	Duration vclock.Nanos
	// Workers is a remnant of the goroutine-pool run loop, kept only because
	// the frozen benchmark module still assigns it: priced and executed runs
	// ignore it; 0 or 1 is accepted and Run rejects anything larger.
	Workers int
	// Seed makes transaction generation deterministic.
	Seed int64
	// SampleWindow is the width of the throughput time-series buckets; zero
	// means one virtual second.
	SampleWindow vclock.Nanos
	// Faults attaches a declarative fault schedule to the run: the engine
	// validates it against its own topology and device layout and fires each
	// event once, when the run's virtual time first passes it (e.g. fail a
	// socket at t=20s, Figure 12). Nil leaves the run untouched.
	Faults *fault.Schedule
}

// maxRunTransactions bounds a duration-driven run that sets no transaction
// count.
const maxRunTransactions = 10_000_000

func (o RunOptions) withDefaults() (RunOptions, error) {
	if o.Transactions <= 0 && o.Duration <= 0 {
		return o, fmt.Errorf("engine: run needs a transaction count or a duration")
	}
	if o.Workers > 1 {
		return o, fmt.Errorf("engine: a run is one goroutine; Workers=%d is not supported (leave it unset)", o.Workers)
	}
	if o.Transactions <= 0 {
		o.Transactions = maxRunTransactions
	}
	if o.SampleWindow <= 0 {
		o.SampleWindow = vclock.Nanos(time.Second)
	}
	return o, nil
}

// SocketThroughput is the committed throughput attributed to one socket.
type SocketThroughput struct {
	Socket     topology.SocketID
	Throughput float64
}

// Result summarizes one run.
type Result struct {
	Design    Design
	Workload  string
	Committed int64
	Aborted   int64
	MultiSite int64
	// VirtualTime is the busiest core's virtual time at the end of the run.
	VirtualTime vclock.Nanos
	// Clocks is the spread of every core's virtual clock at the end of the
	// run; Clocks.Max is VirtualTime.
	Clocks vclock.Spread
	// ThroughputTPS is Committed divided by VirtualTime.
	ThroughputTPS float64
	// Breakdown is the per-component virtual time summed over all cores.
	Breakdown vclock.Breakdown
	// UsefulFraction is execution time divided by total busy time across all
	// cores; it is the reproduction's stand-in for the paper's IPC metric.
	UsefulFraction float64
	// PerSocket reports per-socket throughput (Table I).
	PerSocket []SocketThroughput
	// Series is the throughput time series (Figures 10-13).
	Series []vclock.Sample
	// Repartitions counts adaptive repartitioning events during the run.
	Repartitions int64
	// RepartitionTime is the total virtual time spent repartitioning.
	RepartitionTime vclock.Nanos
	// RepartitionDiffs records every migration of the run, one entry per
	// repartitioning or online island-level change: how much of the placement
	// changed, what it cost and, for a level change, the level trajectory and
	// the scores that decided it.
	RepartitionDiffs []RepartitionDiff
	// AdaptationCostShare is the fraction of total core busy time spent on
	// migration pauses (repartition cost summed over the affected cores).
	AdaptationCostShare float64
	// IslandLevel is the island granularity the engine ended the run at
	// (shared-nothing designs only; empty otherwise). With adaptive
	// granularity it is where the planner converged.
	IslandLevel string
	// QPIToIMCRatio is the interconnect-to-memory-controller traffic ratio.
	QPIToIMCRatio float64
	// Log is the write-ahead-log activity of this run (a delta against the
	// engine's counters at run start): the logical-records vs physical-flushes
	// split is how the group-commit experiments report what coalescing saved.
	Log wal.Stats
}

// TimePerTransaction returns the average virtual time one transaction spent
// in the given component (the Figure 4 breakdown), in nanoseconds.
func (r *Result) TimePerTransaction(comp vclock.Component) float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Breakdown.ByComp[comp]) / float64(r.Committed)
}

// Run executes the workload under the engine's design and returns the
// measured result. It can be called repeatedly; each call starts from virtual
// time zero but keeps the data loaded in the tables.
//
// A run is one host goroutine issuing transactions one at a time; the
// simulated cores are virtual-time accounts, not threads. Fault events and
// the adaptive planner fire inline at fixed points of the transaction
// stream, so the result is a pure function of the seed and the configuration.
func (e *Engine) Run(opts RunOptions) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var faults []fault.Event
	if opts.Faults != nil {
		if err := e.checkFaults(opts.Faults); err != nil {
			return nil, err
		}
		faults = opts.Faults.Events()
	}
	e.resetAccounts()
	e.cfg.Topology.ResetTraffic()
	if e.devices != nil {
		// Runs restart virtual time at zero; the devices' channel horizons
		// from a previous run would otherwise be phantom queueing.
		e.devices.Reset()
	}
	// Runs restart virtual time at zero, so spans from a previous run would
	// overlay this one's timeline.
	e.tracer.Reset()
	series := vclock.NewSeries(opts.SampleWindow)
	logStart := e.logStats()

	if len(e.aliveCores()) == 0 {
		return nil, fmt.Errorf("engine: no alive cores to run on")
	}

	var committed, aborted, multiSite int64
	if e.adaptive != nil {
		e.adaptive.reset()
	}

	// All per-transaction state lives in reusable buffers: the steady-state
	// loop body allocates nothing.
	var gen txnSource
	sc := newExecScratch()
	sc.ring = e.tracer.Worker(0)
	for n := int64(1); n <= int64(opts.Transactions); n++ {
		now := e.virtualNow()
		if opts.Duration > 0 && now >= opts.Duration {
			break
		}
		// The schedule is time-ordered, so the due events are a prefix.
		for len(faults) > 0 && now >= faults[0].At {
			e.applyFault(faults[0])
			faults = faults[1:]
		}
		// Round-robin the coordinating core over the machine; a core on a
		// failed socket is replaced by its fallback. The alive list is cached
		// behind the topology's liveness epoch.
		alive := e.aliveCores()
		if len(alive) == 0 {
			break
		}
		coord := alive[int(n)%len(alive)].ID
		// One partitioning snapshot per transaction, taken before generation:
		// the generator's view of the instance layout (site count, home site)
		// and the execution wiring come from the same snapshot, so a
		// repartitioning or island-level change fired by this transaction's
		// own boundary check applies from the next transaction on.
		sc.snap = e.snap
		t := gen.generate(e.wl, opts.Seed, n, e.coreTime(coord), sc.snap.wiring.siteOf(coord), sc.snap.numSites())
		if t.MultiSite {
			multiSite++
		}
		// Owner-routed designs dispatch the transaction to the worker thread
		// that owns the partition doing most of its work, as DORA does; the
		// coordinating core follows the data.
		coord = e.dispatch(coord, t, sc)
		var txnStart vclock.Nanos
		if sc.ring != nil {
			// Stamp the transaction's spans with the snapshot's wiring epoch
			// and the coordinator's site before executing.
			sc.site = int32(sc.snap.wiring.siteOf(coord))
			sc.epoch = uint32(sc.snap.wiring.epoch)
			txnStart = e.coreTime(coord)
		}
		ok := e.execute(coord, t, sc)
		if sc.ring != nil {
			arg := int64(0)
			if ok {
				arg = 1
			}
			sc.ring.Record(obs.Span{
				Start: txnStart, Dur: e.coreTime(coord) - txnStart,
				Kind: obs.KindTxn, Core: int32(coord),
				Site: sc.site, Epoch: sc.epoch, Arg: arg, Class: t.Class,
			})
		}
		e.noteTime(coord)
		if ok {
			committed++
			e.accounts[coord].committed++
			series.Record(e.coreTime(coord), 1)
		} else {
			aborted++
		}
		if e.adaptive != nil {
			e.adaptive.recordTxn(coord, t)
			e.adaptive.noteBoundary(committed, aborted)
		}
	}
	// Final-flush guarantee: the run does not end with committed work parked
	// in a write-combining accumulator. The drain happens before the log
	// counters are read so the closing physical flush is part of this run's
	// logical-vs-physical split. It is uncharged — the run is over, there is
	// no worker core to bill.
	e.snap.wiring.logs.Drain(e.virtualNowExact())

	res := &Result{
		Design:    e.Design(),
		Workload:  e.wl.Name,
		Committed: committed,
		Aborted:   aborted,
		MultiSite: multiSite,
		Series:    series.Samples(),
	}
	res.VirtualTime = e.virtualNowExact()
	res.Clocks = e.clockSpread()
	if res.VirtualTime > 0 {
		res.ThroughputTPS = float64(res.Committed) / res.VirtualTime.Seconds()
	}
	res.Breakdown = e.breakdown()
	var useful, total vclock.Nanos
	for i := range e.accounts {
		total += e.accounts[i].busy
		useful += e.accounts[i].comp[vclock.Execution]
	}
	if total > 0 {
		res.UsefulFraction = float64(useful) / float64(total)
	}
	res.PerSocket = e.perSocketThroughput()
	if e.row.route == routeIsland {
		res.IslandLevel = e.snap.wiring.level.String()
	}
	if e.adaptive != nil {
		e.adaptive.summarize(res, total)
	}
	res.QPIToIMCRatio = e.cfg.Topology.QPIToIMCRatio()
	res.Log = e.logStats().Sub(logStart)
	return res, nil
}

// numSites returns the snapshot's instance count; a design that is not
// island-routed runs as one machine-wide site.
func (s *stateSnapshot) numSites() int { return len(s.wiring.sites) }

// txnSource is the transaction stream both run loops draw from: transaction
// n is generated from a splitMix reseeded with seed+n, so it is the same
// transaction in the priced and the executed loop, whichever goroutine
// generates it. The generator keeps a pointer to src, so a txnSource must not
// be copied once used.
type txnSource struct {
	src splitMix
	ctx workload.GenContext
}

// generate returns transaction n of the stream seeded with seed, for a worker
// of site home out of sites at time at.
func (s *txnSource) generate(wl *workload.Workload, seed, n int64, at vclock.Nanos, home, sites int) *workload.Transaction {
	if s.ctx.Rng == nil {
		s.ctx.Rng = rand.New(&s.src)
	}
	s.src.seed(seed + n)
	s.ctx.At, s.ctx.HomeSite, s.ctx.NumSites = at, home, sites
	return wl.Generate(&s.ctx)
}

// splitMix is a tiny allocation-free rand.Source64 (splitmix64) that can be
// reseeded per transaction, making the generated workload a pure function of
// the transaction index.
type splitMix struct{ state uint64 }

// seed places the generator at a pseudo-random point of the splitmix orbit.
// The seed is avalanched first so that consecutive transaction indices do not
// produce overlapping (shifted) output streams, which would make neighbouring
// transactions touch the same keys.
func (s *splitMix) seed(v int64) {
	z := uint64(v) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	s.state = z ^ (z >> 31)
}

// Seed implements rand.Source.
func (s *splitMix) Seed(v int64) { s.seed(v) }

// Uint64 implements rand.Source64.
func (s *splitMix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// perSocketThroughput attributes committed transactions to the socket of the
// core that committed them and divides by the socket's busiest core time.
func (e *Engine) perSocketThroughput() []SocketThroughput {
	top := e.cfg.Topology
	out := make([]SocketThroughput, top.Sockets())
	for s := 0; s < top.Sockets(); s++ {
		var committed int64
		var busiest vclock.Nanos
		for _, c := range top.CoresOn(topology.SocketID(s)) {
			committed += e.accounts[c.ID].committed
			if t := e.accounts[c.ID].busy; t > busiest {
				busiest = t
			}
		}
		st := SocketThroughput{Socket: topology.SocketID(s)}
		if busiest > 0 {
			st.Throughput = float64(committed) / busiest.Seconds()
		}
		out[s] = st
	}
	return out
}
