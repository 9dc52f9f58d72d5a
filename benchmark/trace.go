package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"atrapos/internal/engine"
	"atrapos/internal/vclock"
	"atrapos/internal/wal"
	"atrapos/internal/workload"
)

// tracedSizing is how much work the traced run does: the replayed stream is
// blocks x perBlock transactions, and each engine phase runs segments
// segments.
type tracedSizing struct {
	blocks, perBlock, segments int
}

// tracedSizeFor scales the traced run to the time budget: 32 blocks of 2,000
// transactions and 4 segments per engine phase from 11 seconds up, and always
// a whole number of planning rounds.
func tracedSizeFor(budget time.Duration) tracedSizing {
	sec := int(budget / time.Second)
	return tracedSizing{
		blocks:   min(32, max(planEvery, 3*sec/planEvery*planEvery)),
		perBlock: 2000,
		segments: min(4, max(2, sec/3)),
	}
}

// layerCounts sums what the engine's results say about the layers over the
// segments of the untraced phase.
type layerCounts struct {
	segments                          int
	committed, multisite              int64
	breakdown                         [vclock.NumComponents]int64
	log                               wal.Stats
	repartitions                      int64
	movedPartitions, reused, rebuilt  int64
	useful, qpiToIMC, adaptShare      float64 // sums; divide by segments
	devFlushes, devQueued, devWaitVNS int64
}

func (c *layerCounts) addPriced(r *engine.Result, e *engine.Engine) {
	c.segments++
	c.committed += r.Committed
	c.multisite += r.MultiSite
	for i, v := range r.Breakdown.ByComp {
		c.breakdown[i] += int64(v)
	}
	c.log = c.log.Add(r.Log)
	c.repartitions += r.Repartitions
	for _, d := range r.RepartitionDiffs {
		c.movedPartitions += int64(d.MovedPartitions)
		c.reused += int64(d.ReusedLockTables)
		c.rebuilt += int64(d.RebuiltLockTables)
	}
	c.useful += r.UsefulFraction
	c.qpiToIMC += r.QPIToIMCRatio
	c.adaptShare += r.AdaptationCostShare
	if devs := e.Devices(); devs != nil {
		// Device counters restart with every run, so each segment adds its own.
		st := devs.Stats()
		c.devFlushes += st.Flushes
		c.devQueued += st.Queued
		c.devWaitVNS += int64(st.QueueWait)
	}
}

// tracedReport is one workload's traced-run outcome.
type tracedReport struct {
	spec        spec
	seed        int64
	size        tracedSizing
	metrics     map[string]metric
	attempted   int64
	failed      int64
	problems    []string
	host        hostInfo
	disturbance disturbance
	artifacts   []string
}

// runTraced is the traced run: the engine's public entry point under spans
// and a CPU profile, then every layer's call stream replayed from outside.
// Artifacts go to outDir.
func runTraced(s spec, z sizing, size tracedSizing, seed int64, outDir string) (*tracedReport, error) {
	rep := &tracedReport{spec: s, seed: seed, size: size, host: fingerprint()}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	steal := startSteal()
	// Blocks, their layer spans and phase children, the engine spans: pre-sized
	// so recording never grows the slice.
	rec := newRecorder(64 + size.blocks*64)

	cfg, err := s.config(z.rows)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	in := layerInputs{spec: s, cfg: cfg, size: size}
	profPath := filepath.Join(outDir, "cpu-"+s.name+".pprof")
	if err := rep.engineSegments(&in, e, z, seed, rec, profPath); err != nil {
		return nil, err
	}
	rep.artifacts = append(rep.artifacts, profPath)
	if err := rep.replayLayers(&in, e, seed, rec); err != nil {
		return nil, err
	}
	runtime.KeepAlive(e)

	// All timing has ended: write the trace.
	tracePath := filepath.Join(outDir, "trace-"+s.name+".json")
	data, err := chromeTrace(rec.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		return nil, err
	}
	rep.artifacts = append(rep.artifacts, tracePath)

	rep.disturbance = steal.stop(append(append([]float64(nil), in.plainNS...), in.tracedNS...))
	if rep.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d transactions failed", rep.failed, rep.attempted))
	}
	if len(rep.problems) > 0 {
		rep.failed = rep.attempted
	}
	in.spans, in.disturbance = rec.spans, rep.disturbance
	rep.metrics = layerMetrics(in)
	return rep, nil
}

// engineSegments runs the workload's entry point three times over the same
// seeds: untraced (what the counts and engine.ns_per_txn come from), inside
// spans with the CPU profile running, and on a second engine with
// Config.Tracing flipped.
func (rep *tracedReport) engineSegments(in *layerInputs, e *engine.Engine, z sizing, seed int64, rec *recorder, profPath string) error {
	s, segments := in.spec, in.size.segments
	txns := z.segTxns(s)
	count := func(sg segment) {
		rep.attempted += sg.Attempted
		rep.failed += sg.Attempted - sg.Committed
	}

	// The untraced driver: one warm-up and the counted segments.
	if _, err := runSegment(e, s, txns, segSeed(seed, 0)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= segments; i++ {
		sg, err := runSegment(e, s, txns, segSeed(seed, i))
		if err != nil {
			return err
		}
		in.plainNS = append(in.plainNS, float64(sg.wallNS)/float64(txns))
		count(sg)
		if sg.priced != nil {
			in.counted.addPriced(sg.priced, e)
		}
		in.lastX = sg.executed
	}
	runtime.ReadMemStats(&after)
	in.allocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(segments*txns)
	in.bytesPerTxn = float64(after.TotalAlloc-before.TotalAlloc) / float64(segments*txns)
	in.dropped, in.attempts = tracerDrops(e)
	if s.executed {
		// The priced twin supplies the virtual-time breakdown.
		pr, err := runPriced(e, engine.RunOptions{Transactions: z.twinTxns(), Seed: segSeed(seed, segments+1)})
		if err != nil {
			return fmt.Errorf("priced twin: %w", err)
		}
		in.counted.addPriced(pr, e)
	}

	// The traced driver: the same segments again inside spans, with the CPU
	// profile running. The difference to the untraced ones is what tracing
	// from outside costs (bench.span_overhead_share).
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer prof.Close() // closed again, and checked, on the success path
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	for i := 1; i <= segments; i++ {
		id := rec.begin("engine.run", 0, fmt.Sprintf("%s/segment-%d", s.name, i))
		sg, err := runSegment(e, s, txns, segSeed(seed, i))
		rec.end(id, int64(txns))
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		in.tracedNS = append(in.tracedNS, float64(rec.spans[id-1].dur())/float64(txns))
		count(sg)
	}
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}

	// The Tracing twin: the same configuration with only Config.Tracing
	// flipped, same seeds (obs.trace_overhead_share).
	twinCfg, err := s.config(z.rows)
	if err != nil {
		return err
	}
	twinCfg.Tracing = !twinCfg.Tracing
	twin, err := engine.New(twinCfg)
	if err != nil {
		return err
	}
	for i := 0; i <= segments; i++ {
		sg, err := runSegment(twin, s, txns, segSeed(seed, i))
		if err != nil {
			return fmt.Errorf("tracing twin: %w", err)
		}
		if i > 0 {
			in.twinNS = append(in.twinNS, float64(sg.wallNS)/float64(txns))
		}
	}
	return nil
}

// replayLayers replays every layer's call stream, block by block, on layer
// instances built around the engine's own tables.
func (rep *tracedReport) replayLayers(in *layerInputs, e *engine.Engine, seed int64, rec *recorder) error {
	runtime.GC() // the Tracing twin is garbage by now
	// Breakdown sums over all cores; the machine's clock advances by the
	// per-core share.
	vnsTxn := 1000.0
	if c := in.counted; c.committed > 0 {
		var total int64
		for _, v := range c.breakdown {
			total += v
		}
		vnsTxn = float64(total) / float64(c.committed) / float64(in.cfg.Topology.NumCores())
	}
	rp, err := newReplay(rec, in.cfg, in.spec.executed, e, seed, vnsTxn)
	if err != nil {
		return err
	}
	name, blocks, perBlock := in.spec.name, in.size.blocks, in.size.perBlock
	for b := 0; b < blocks; b++ {
		rp.beginBlock(name, b, perBlock, true)
		in.shape.add(rp.st, rp.hash.Islands(), rp.firstID)
		rp.replayLock()
		in.readsInPath = rp.replayStorage()
		rp.replayWAL(rp.walOwn, "wal")
		rp.replayWAL(rp.walTwin, "wal.twin")
		rp.replayTxn()
		rp.replayNUMA()
		rp.replayBackend(in.readsInPath)
		rp.replayOBS()
		rp.endBlock()
	}
	// The adaptive pipeline moves rows between partitions of the engine's own
	// tables, so it runs after every other layer has seen every block.
	window := vclock.Nanos(vnsTxn * float64(perBlock))
	for b := 0; b < blocks; b++ {
		rp.beginBlock(name, b, perBlock, false)
		rp.replayRepartition()
		rp.replayCore(b, window)
		rp.endBlock()
	}
	if err := rp.replayRecovery(); err != nil {
		rep.problems = append(rep.problems, "wal.Recover over the replayed log: "+err.Error())
	}
	return nil
}

// tracerDrops sums the engine's span rings: spans dropped and spans offered.
func tracerDrops(e *engine.Engine) (dropped, attempts int64) {
	tr := e.Tracer()
	if tr == nil {
		return 0, 0
	}
	n := e.Topology().NumCores()
	for i := 0; i < n; i++ {
		attempts += tr.Worker(i).Attempts() + tr.Island(i).Attempts()
	}
	if devs := e.Devices(); devs != nil {
		for i := 0; i < devs.NumDevices(); i++ {
			attempts += tr.Device(i).Attempts()
		}
	}
	attempts += tr.Planner().Attempts()
	return tr.Dropped(), attempts
}

// streamShape counts what the replayed stream looks like.
type streamShape struct {
	txns, actions, writes, multisite, twoPC int64
	// ships is how many operations an executed run of the stream ships to the
	// other island: remote reads and writes (an update is a Get and a Put) and
	// one commit record per remote write participant.
	ships         int64
	realMultisite bool
}

func (s *streamShape) add(st *stream, islands int, firstID uint64) {
	s.realMultisite = s.realMultisite || st.realMultisite
	for i := range st.txns {
		t := &st.txns[i]
		s.txns++
		s.actions += int64(t.a1 - t.a0)
		s.writes += int64(t.writes)
		if t.p1-t.p0 > 1 && st.realMultisite {
			s.multisite++
		}
		if t.twoPC {
			s.twoPC++
		}
		island := int32((firstID + uint64(i)) % uint64(islands))
		remoteWrite := false
		for j := t.a0; j < t.a1; j++ {
			a := &st.acts[j]
			if a.shard%int32(islands) == island {
				continue
			}
			s.ships++
			if a.Op.IsWrite() {
				remoteWrite = true
				if a.Op == workload.Update {
					s.ships++
				}
			}
		}
		if remoteWrite {
			s.ships++
		}
	}
}

// print writes the human-readable traced report.
func (r *tracedReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s traced, seed %d: %d blocks x %d txns replayed, 2 x %d engine segments\n",
		r.spec.name, r.seed, r.size.blocks, r.size.perBlock, r.size.segments)
	fmt.Fprintln(w, " ", r.host)
	fmt.Fprintln(w, " ", r.disturbance)
	printMetrics(w, r.metrics)
	for _, a := range r.artifacts {
		fmt.Fprintln(w, "  wrote", a)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
}
