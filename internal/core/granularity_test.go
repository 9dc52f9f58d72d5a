package core

import (
	"math"
	"testing"

	"atrapos/internal/device"
	"atrapos/internal/numa"
	"atrapos/internal/topology"
)

func granModelFor(t *testing.T, profile string) (GranularityModel, *topology.Topology) {
	t.Helper()
	p, ok := topology.ProfileByName(profile)
	if !ok {
		t.Fatalf("unknown profile %s", profile)
	}
	top := p.Build()
	d := numa.NewDomain(top)
	return GranularityModel{Domain: d}, top
}

func granShape(share float64) WorkloadShape {
	return WorkloadShape{
		MultisiteShare: share,
		ActionsPerTxn:  10,
		WritesPerTxn:   10,
		SyncBytes:      88,
	}
}

// TestGranularityExtremes asserts the scorer reproduces the fig-islands
// sweep's headline shape on every sweep profile: with no multisite work the
// finest level is cheapest and the cost ordering follows coarseness; with
// every transaction multisite the machine level (one instance, no
// coordination) is strictly cheapest.
func TestGranularityExtremes(t *testing.T) {
	for _, profile := range []string{"2s-fc", "chiplet-2s4d", "4s-fc"} {
		g, top := granModelFor(t, profile)
		atZero, _ := g.Best(granShape(0), 0.02)
		if atZero != topology.LevelCore {
			t.Errorf("%s: best level at 0%% multisite = %v, want core", profile, atZero)
		}
		atFull, _ := g.Best(granShape(1), 0.02)
		if atFull != topology.LevelMachine {
			t.Errorf("%s: best level at 100%% multisite = %v, want machine", profile, atFull)
		}
		// At 0% the cost ordering follows coarseness: every level is at least
		// as cheap as the next coarser one.
		_, scores := g.Best(granShape(0), 0)
		for i := 1; i < len(scores); i++ {
			if scores[i-1].Total > scores[i].Total {
				t.Errorf("%s: at 0%% multisite %v (%f) should not cost more than %v (%f)",
					profile, scores[i-1].Level, scores[i-1].Total, scores[i].Level, scores[i].Total)
			}
		}
		_ = top
	}
}

// TestGranularityCrossoverMonotone: each level's score is non-decreasing in
// the multisite share and the machine level's is flat, so every fine/coarse
// pair crosses at most once — the crossover the hysteresis brackets.
func TestGranularityCrossoverMonotone(t *testing.T) {
	g, top := granModelFor(t, "chiplet-2s4d")
	shares := []float64{0, 0.1, 0.25, 0.5, 0.75, 1}
	for _, level := range top.DistinctLevels() {
		prev := -1.0
		for _, s := range shares {
			score := g.Score(level, granShape(s))
			if score < prev {
				t.Errorf("%v: score decreased from %f to %f at share %f", level, prev, score, s)
			}
			prev = score
		}
		if level == topology.LevelMachine {
			if g.Score(level, granShape(0)) != g.Score(level, granShape(1)) {
				t.Errorf("machine level should be share-independent")
			}
		}
	}
	// Somewhere strictly between the endpoints the winner flips: the measured
	// crossover is bracketed, not at an endpoint.
	best01, _ := g.Best(granShape(0.1), 0.02)
	if best01 == topology.LevelMachine {
		t.Errorf("at 10%% multisite the machine level should not yet win, got %v", best01)
	}
	best05, _ := g.Best(granShape(0.5), 0.02)
	if best05 != topology.LevelMachine {
		t.Errorf("at 50%% multisite the machine level should already win, got %v", best05)
	}
}

// TestGranularityTiesResolveFiner: with flushes unpriced (a read-only shape
// pays no commit term), core and die islands on a chiplet machine score
// identically at 0% multisite (both are fully island-local); the tie must
// resolve to the finer level.
func TestGranularityTiesResolveFiner(t *testing.T) {
	g, _ := granModelFor(t, "chiplet-2s4d")
	shape := granShape(0)
	shape.WritesPerTxn = 0
	core := g.Score(topology.LevelCore, shape)
	die := g.Score(topology.LevelDie, shape)
	if core != die {
		t.Fatalf("core (%f) and die (%f) should tie at 0%% multisite on a chiplet", core, die)
	}
	best, _ := g.Best(shape, 0.02)
	if best != topology.LevelCore {
		t.Errorf("tie should resolve to the finest level, got %v", best)
	}
}

// TestGranularityFlushImbalance: the shared island log of a coarse island
// concentrates the full group-commit flushes on one member core, so with
// everything else local the finer level must score strictly cheaper — the
// measured core-beats-socket gap of the sweep at 0% multisite.
func TestGranularityFlushImbalance(t *testing.T) {
	g, _ := granModelFor(t, "2s-fc")
	shape := granShape(0)
	core := g.Score(topology.LevelCore, shape)
	socket := g.Score(topology.LevelSocket, shape)
	if core >= socket {
		t.Errorf("core (%f) should beat socket (%f) at 0%% multisite via flush imbalance", core, socket)
	}
	shape.WritesPerTxn = 0 // a read-only shape leaves flushes unpriced
	if g.Score(topology.LevelCore, shape) != g.Score(topology.LevelSocket, shape) {
		t.Errorf("without flush pricing core and socket should tie on a flat machine at 0%%")
	}
}

// TestGranularitySurvivesFailure: with a failed socket the scorer prices only
// alive islands and still ranks sanely; a machine with no alive sockets
// scores +Inf everywhere.
func TestGranularitySurvivesFailure(t *testing.T) {
	g, top := granModelFor(t, "2s-fc")
	if err := top.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	// One socket left: socket and machine islands coincide, core is finest.
	atZero, scores := g.Best(granShape(0), 0.02)
	if atZero != topology.LevelCore {
		t.Errorf("best level after failure at 0%% = %v (%v)", atZero, scores)
	}
	for _, ls := range scores {
		if math.IsInf(ls.Total, 1) {
			t.Errorf("level %v scored +Inf on a machine with alive cores", ls.Level)
		}
	}
	if err := top.FailSocket(0); err != nil {
		t.Fatal(err)
	}
	_, scores = g.Best(granShape(0), 0)
	for _, ls := range scores {
		if !math.IsInf(ls.Total, 1) {
			t.Errorf("level %v should score +Inf with no alive sockets, got %f", ls.Level, ls.Total)
		}
	}
}

// TestStatsTxnShape checks the monitor's transaction-shape counters feed the
// shape the scorer consumes, epoch by epoch.
func TestStatsTxnShape(t *testing.T) {
	m := NewMonitor(0)
	for i := 0; i < 8; i++ {
		m.RecordTxn(10, 10, 2, i%4 == 0, 88)
	}
	stats := m.Seal()
	if stats.Txns != 8 || stats.MultisiteTxns != 2 {
		t.Fatalf("txns = %d multisite = %d, want 8/2", stats.Txns, stats.MultisiteTxns)
	}
	if got := stats.MultisiteShare(); got != 0.25 {
		t.Errorf("MultisiteShare = %f, want 0.25", got)
	}
	if got := stats.ActionsPerTxn(); got != 10 {
		t.Errorf("ActionsPerTxn = %f, want 10", got)
	}
	if got := stats.WritesPerTxn(); got != 10 {
		t.Errorf("WritesPerTxn = %f, want 10", got)
	}
	if got := stats.SyncBytesPerMultisiteTxn(); got != 88 {
		t.Errorf("SyncBytesPerMultisiteTxn = %d, want 88", got)
	}
	// Sealing cleared the epoch: the next seal reports an empty interval.
	if again := m.Seal(); again.Txns != 0 || again.MultisiteShare() != 0 {
		t.Errorf("counters not cleared by Seal: %+v", again)
	}
}

// TestGranularityDeviceTerm asserts the commit-latency term moves the scorer
// with the storage profile: on a chiplet machine with one NVMe per socket, a
// machine-grained wiring funnels every island's commits through socket 0's
// device and must score worse relative to socket islands than it does without
// device modeling; and a single queue-depth-1 device must penalize the fine
// levels (many logs, one flush path) hardest.
func TestGranularityDeviceTerm(t *testing.T) {
	g, top := granModelFor(t, "chiplet-2s4d")
	shape := granShape(0)

	scoreAt := func(layout string, level topology.Level) float64 {
		gd := g
		if layout != "" {
			m, err := device.BuildLayout(layout, top)
			if err != nil {
				t.Fatal(err)
			}
			gd.Devices = m
		}
		return gd.Score(level, shape)
	}

	// The device term only adds cost: every level scores at least its
	// device-blind score.
	for _, level := range top.DistinctLevels() {
		if scoreAt("nvme-per-socket", level) < scoreAt("", level) {
			t.Errorf("%v: device term should not reduce the score", level)
		}
	}

	// Funneling penalty: with per-socket NVMe the machine level concentrates
	// twice the commit streams on one device compared to the socket level, so
	// its device surcharge must be strictly larger.
	surcharge := func(layout string, level topology.Level) float64 {
		return scoreAt(layout, level) - scoreAt("", level)
	}
	if !(surcharge("nvme-per-socket", topology.LevelMachine) > surcharge("nvme-per-socket", topology.LevelSocket)) {
		t.Errorf("machine-level funneling should cost more than socket-level spreading: machine +%f, socket +%f",
			surcharge("nvme-per-socket", topology.LevelMachine), surcharge("nvme-per-socket", topology.LevelSocket))
	}

	// Scarcity: the single SATA device (slow service, depth 1, every commit
	// stream in one queue) must cost strictly more than per-socket NVMe at
	// every level.
	for _, level := range top.DistinctLevels() {
		if !(surcharge("single-sata", level) > surcharge("nvme-per-socket", level)) {
			t.Errorf("%v: a single SATA device should cost more than per-socket NVMe", level)
		}
	}

	// No writes, no commit latency: the term is gated on the workload shape.
	readOnly := shape
	readOnly.WritesPerTxn = 0
	gd := g
	m, _ := device.BuildLayout("single-sata", top)
	gd.Devices = m
	if gd.Score(topology.LevelCore, readOnly) != g.Score(topology.LevelCore, readOnly) {
		t.Error("read-only shapes should not pay the device term")
	}
}
