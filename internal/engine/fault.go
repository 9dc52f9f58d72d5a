package engine

import (
	"errors"
	"fmt"

	"atrapos/internal/fault"
	"atrapos/internal/schema"
	"atrapos/internal/storage"
	"atrapos/internal/wal"
)

// checkFaults validates a declarative fault schedule against this engine's
// hardware. The schedule was already validated against a machine descriptor
// at construction; this re-check catches a schedule built for a different
// machine shape than the engine it was attached to.
func (e *Engine) checkFaults(s *fault.Schedule) error {
	m := s.Machine()
	top := e.cfg.Topology
	if m.Sockets != top.Sockets() {
		return fmt.Errorf("engine: fault schedule targets a %d-socket machine, engine runs on %d sockets", m.Sockets, top.Sockets())
	}
	ndev := 0
	if e.devices != nil {
		ndev = e.devices.NumDevices()
	}
	if m.Devices != ndev {
		return fmt.Errorf("engine: fault schedule targets %d log devices, engine has %d", m.Devices, ndev)
	}
	// A log that retains no records cannot be recovered from, so the drill
	// runs on full retention: every log switches to it, and so do the logs
	// later re-wirings build, unless a log has already dropped a record.
	if s.HasCrash() && e.cfg.LogConfig.Keep != 0 {
		for i, l := range e.logs {
			if n := l.Discarded(); n > 0 {
				return fmt.Errorf("engine: a crash-and-recover drill requires complete logs, but log %d already discarded %d records (LogConfig.Keep=%d)", i, n, e.cfg.LogConfig.Keep)
			}
		}
		lc := *e.cfg.LogConfig
		lc.Keep = 0
		e.cfg.LogConfig = &lc
		for _, l := range e.logs {
			l.RetainAll()
		}
	}
	return nil
}

// applyFault fires one event of a checked schedule. An event the engine
// refuses (say, a restore of a socket failed by hand and already restored)
// leaves the run unchanged.
func (e *Engine) applyFault(ev fault.Event) {
	switch ev.Kind {
	case fault.KindFailSocket:
		_ = e.FailSocket(ev.Socket)
	case fault.KindRestoreSocket:
		_ = e.RestoreSocket(ev.Socket)
	case fault.KindFailDevice:
		_ = e.FailDevice(ev.Device)
	case fault.KindDegradeDevice:
		_ = e.DegradeDevice(ev.Device, ev.LatencyFactor)
	case fault.KindCrashAndRecover:
		_, _ = e.CrashAndRecover()
	}
}

// logStats sums the activity counters of every log the engine's wirings
// created. A log a re-wiring dropped takes no more appends and one built for
// an abandoned wiring never took any, so the total is cumulative over the
// engine's whole history: Result.Log deltas never under-report because a
// level change rebuilt a log mid-run.
func (e *Engine) logStats() wal.Stats {
	var s wal.Stats
	for _, l := range e.logs {
		s = s.Add(l.Stats())
	}
	return s
}

// tableStore adapts a storage table to the wal.RowStore recovery interface:
// redo applies row images without cost accounting (recovery replays history,
// it does not re-execute it), inserting or replacing the row as a duplicate
// insert action does.
type tableStore struct{ t *storage.Table }

func (s tableStore) ApplyInsert(key schema.Key, row schema.Row) {
	b, err := s.t.Layout().Encode(row)
	if err != nil {
		return
	}
	p := s.t.PartitionFor(key)
	if _, err := s.t.InsertIn(p, 0, key, b); errors.Is(err, storage.ErrDuplicate) {
		_, _ = s.t.ReplaceIn(p, 0, key, b)
	}
}

func (s tableStore) ApplyDelete(key schema.Key) {
	_, _ = s.t.Delete(0, key)
}

// CrashAndRecover is the crash drill: it models an instance crash by dropping
// every row the retained log records cover — the volatile state whose
// durability the log is responsible for; base data loaded before the run is
// durable by definition and stays — and then replays wal.Recover from the
// logs the engine currently owns. Committed transactions' effects are
// re-established, in-flight losers are discarded. It needs every record
// (LogConfig.Keep=0, which a scheduled drill switches on) and returns an
// error, before touching any table, when a log it would replay discarded
// one. On a serial run the post-recovery table state is equivalent to a
// fault-free run's; tests and the fuzzer assert exactly that.
//
// Recovery replays all retained records rather than only the durable prefix:
// the reproduction's group commit acknowledges transactions whose flush rides
// along a later group, so the committed-state equivalence the drill asserts
// is defined against commit records, not the flush horizon.
func (e *Engine) CrashAndRecover() (wal.RecoveryStats, error) {
	// The crash happens at the drill's point of virtual time; the modeled
	// instance flushes its write-combining accumulators on the way down (the
	// final-flush guarantee), so the records recovery reads hold every
	// committed transaction's net deltas and the staged records of in-flight
	// losers.
	logs := e.snap.wiring.logs
	logs.Drain(e.virtualNowExact())
	var records []wal.Record
	var durable wal.LSN
	for i := range logs.NumLogs() {
		l := logs.Log(i)
		if n := l.Discarded(); n > 0 {
			return wal.RecoveryStats{}, fmt.Errorf("engine: crash recovery needs every log record, but island log %d discarded %d (LogConfig.Keep=%d)", i, n, e.cfg.LogConfig.Keep)
		}
		records = append(records, l.Records()...)
		if d := l.Durable(); d > durable {
			durable = d
		}
	}
	// Crash: drop the state the log covers. Every key named by any retained
	// record is in doubt after a crash; deleting exactly those keys (Delete
	// bypassing nothing — the rows genuinely leave the trees) models losing
	// the volatile buffer while keeping the durable base data.
	touched := make(map[string]map[schema.Key]struct{})
	for _, rec := range records {
		switch rec.Type {
		case wal.Insert, wal.Update, wal.Delete:
			keys := touched[rec.Table]
			if keys == nil {
				keys = make(map[schema.Key]struct{})
				touched[rec.Table] = keys
			}
			keys[rec.Key] = struct{}{}
		}
	}
	for name, keys := range touched {
		ti, ok := e.tableIdx[name]
		if !ok {
			continue
		}
		for k := range keys {
			_, _ = e.tables[ti].Delete(0, k)
		}
	}
	stores := make(map[string]wal.RowStore, len(e.tables))
	for _, tbl := range e.tables {
		stores[tbl.Name()] = tableStore{t: tbl}
	}
	return wal.Recover(records, durable, false, stores)
}

// TableKeySets returns the keys present in every table, in ascending order,
// keyed by table name. The crash drill's equivalence assertion compares the
// key sets of a crashed-and-recovered run against a fault-free twin; the
// reproduction's redo records re-establish key presence (they carry no
// after-image payload), so key sets are exactly the state recovery defines.
func (e *Engine) TableKeySets() map[string][]schema.Key {
	out := make(map[string][]schema.Key, len(e.tables))
	for _, tbl := range e.tables {
		keys := make([]schema.Key, 0, tbl.Len())
		tbl.AscendKeys(func(k schema.Key) bool {
			keys = append(keys, k)
			return true
		})
		out[tbl.Name()] = keys
	}
	return out
}

// WiringBindsFailedDevice reports whether any island log of the installed
// wiring of an island-routed design flushes through a failed device. After
// the planner's re-homing has converged it is always false; tests and the
// fuzzer assert that instead of eyeballing timelines. The other designs are
// never re-wired, so it is false for them.
func (e *Engine) WiringBindsFailedDevice() bool {
	return e.row.route == routeIsland && wiringBindsFailedDevice(e.snap.wiring)
}

// WiringConverged reports whether the installed wiring matches the current
// hardware: every site homed on an alive socket, every alive island at the
// wiring's level represented, and no island log bound to a failed device.
// Designs that are not island-routed are never re-wired and are trivially
// converged.
func (e *Engine) WiringConverged() bool {
	w := e.snap.wiring
	return e.row.route != routeIsland || !wiringStale(w, e.cfg.Topology) && !wiringBindsFailedDevice(w)
}
