// Package device models the heterogeneous log devices of a modern server:
// the flush targets the write-ahead logs commit to. A Device couples a cost
// specification (flush latency, per-byte bandwidth cost, queue depth) with a
// deterministic virtual-time queueing model: every flush occupies one of the
// device's channels for its service time, and a flush that arrives while all
// channels are busy waits behind the flushes queued ahead of it. The queueing
// is what makes log devices a granularity concern — an island wiring that
// funnels many instances' group commits through one flush path pays waits a
// wiring that spreads them across devices does not.
//
// Devices account cost in virtual nanoseconds like the rest of the system;
// they never sleep. The wal package binds one Device per island log, the
// engine derives the binding from a Layout (the machine's storage shape), and
// the granularity scorer prices candidate island levels against the same map.
package device

import (
	"fmt"

	"atrapos/internal/numa"
	"atrapos/internal/obs"
	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// Spec is the immutable description of one log device.
type Spec struct {
	// Name identifies the device instance within its layout ("nvme-s0").
	Name string
	// Class names the device technology ("nvme", "nvme-shared", "sata").
	Class string
	// FlushLatency is the service latency of one flush: the virtual time the
	// device is busy making a group commit durable.
	FlushLatency numa.Cost
	// PerByteCost is the bandwidth cost per flushed byte, added to the service
	// time of a flush proportionally to the bytes it writes out.
	PerByteCost numa.Cost
	// QueueDepth is the number of flushes the device services concurrently
	// (NVMe namespaces absorb several in-flight flushes; a SATA-class device
	// serializes them). Values below one are treated as one.
	QueueDepth int
	// Socket and Die are where the device attaches: the socket owning the
	// controller and the die hosting it (the IO die on chiplet parts).
	Socket topology.SocketID
	Die    topology.DieID
}

// Device is one instantiated log device: a Spec plus the deterministic
// virtual-time queue state.
//
// A Device is single-owner: plain fields, no mutex, no atomics. Its queue is
// priced, never enacted. A device belongs to one engine's device map; the
// island logs bound to it flush, the fault events fail and degrade it, and
// the planner reads its backlog, all on the priced run's one goroutine, and
// the harness pool builds a fresh map for every point. Executed value logs
// never bind a device (backend.HashConfig.Log).
//
// The queue is a drain-based backlog: every flush deposits its service time
// into the device's backlog, and the backlog drains as the issuing workers'
// virtual clocks advance past the latest arrival the device has seen —
// QueueDepth channels drain in parallel. A flush arriving at a backlogged
// device waits backlog/QueueDepth: the expected time until a channel frees
// up with the flushes ahead of it in service. Measuring contention against
// the backlog rather than against an absolute busy horizon keeps the model
// stable under per-core virtual clocks, which are mutually unordered: clock
// skew between workers never masquerades as device contention (an absolute
// horizon would charge every lagging worker the skew as a phantom wait, and
// 2PC's lock-holding multiplier would compound it run-away).
type Device struct {
	spec Spec

	// failed and degrade are the fault-injection state. degrade is the
	// latency factor; zero means the device is healthy (factor 1.0), so
	// fault-free runs never touch float arithmetic and stay bit-identical.
	failed  bool
	degrade float64

	// backlog is the service work deposited by flushes and not yet drained.
	backlog vclock.Nanos
	// horizon is the latest arrival time seen; clock progress beyond it
	// drains the backlog.
	horizon vclock.Nanos

	flushes   int64
	queuedFl  int64
	queueWait vclock.Nanos

	// trace is the span ring queue waits are recorded into; nil (the
	// default) records nothing. traceID stamps the spans with the device's
	// layout index.
	trace   *obs.Ring
	traceID int32
}

// New instantiates a device from its spec, normalizing degenerate values.
func New(spec Spec) *Device {
	if spec.QueueDepth < 1 {
		spec.QueueDepth = 1
	}
	if spec.FlushLatency < 0 {
		spec.FlushLatency = 0
	}
	if spec.PerByteCost < 0 {
		spec.PerByteCost = 0
	}
	return &Device{spec: spec}
}

// Spec returns the device's specification.
func (d *Device) Spec() Spec { return d.spec }

// Service returns the queue-free service time of one flush writing the given
// number of bytes, inflated by the degrade factor when the device is
// degraded.
func (d *Device) Service(bytes int) numa.Cost {
	if bytes < 0 {
		bytes = 0
	}
	s := d.spec.FlushLatency + numa.Cost(bytes)*d.spec.PerByteCost
	if d.degrade != 0 {
		s = numa.Cost(float64(s) * d.degrade)
	}
	return s
}

// Fail marks the device failed. A failed device keeps servicing flushes of
// logs still bound to it (the model has no data loss to represent — failure
// is a re-homing trigger), but the planner treats any wiring bound to it as
// stale and re-homes the affected island logs to surviving devices.
func (d *Device) Fail() { d.failed = true }

// Restore clears the failed mark.
func (d *Device) Restore() { d.failed = false }

// Failed reports whether the device is marked failed.
func (d *Device) Failed() bool { return d.failed }

// Degrade sets the device's latency factor: every subsequent service time is
// multiplied by it, modeling a device that still works but has slowed down
// (media wear, thermal throttling, a flaky link). Factors below one are
// clamped to one; Degrade(1) restores full speed.
func (d *Device) Degrade(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	d.degrade = factor
}

// Flush models one group-commit flush issued at virtual time now that writes
// bytes to the device. The flush first drains the backlog by the virtual time
// elapsed since the device's latest arrival (QueueDepth channels in
// parallel), then waits behind whatever backlog remains — the contention of
// the flushes queued ahead of it — and finally deposits its own service
// time. The returned latency is wait plus service. The model is
// deterministic in the sequence of calls and performs no heap allocations,
// so it can sit under the commit hot path.
func (d *Device) Flush(now vclock.Nanos, bytes int) numa.Cost {
	service := d.Service(bytes)
	depth := vclock.Nanos(d.spec.QueueDepth)
	if now > d.horizon {
		drained := (now - d.horizon) * depth
		if drained >= d.backlog {
			d.backlog = 0
		} else {
			d.backlog -= drained
		}
		d.horizon = now
	}
	wait := d.backlog / depth
	if wait > 0 {
		d.queuedFl++
		d.queueWait += wait
		d.trace.Record(obs.Span{Start: now, Dur: wait, Kind: obs.KindDeviceWait,
			Site: d.traceID, Arg: int64(bytes)})
	}
	d.backlog += vclock.Nanos(service)
	d.flushes++
	return numa.Cost(wait) + service
}

// SetTrace attaches (or, with a nil ring, detaches) the span ring the device
// records queue waits into, stamped with the device's layout index id.
func (d *Device) SetTrace(r *obs.Ring, id int32) { d.trace, d.traceID = r, id }

// BacklogAt returns the service backlog that would remain at virtual time
// now — the drain formula of Flush applied read-only. The metrics sampler
// reads it at planner boundaries.
func (d *Device) BacklogAt(now vclock.Nanos) vclock.Nanos {
	backlog := d.backlog
	if now > d.horizon {
		drained := (now - d.horizon) * vclock.Nanos(d.spec.QueueDepth)
		if drained >= backlog {
			return 0
		}
		backlog -= drained
	}
	return backlog
}

// Stats summarizes one device's activity since the last Reset.
type Stats struct {
	// Flushes is the number of flushes serviced.
	Flushes int64
	// Queued is how many of them found every channel busy and had to wait.
	Queued int64
	// QueueWait is the total virtual time flushes spent waiting for a channel.
	QueueWait vclock.Nanos
}

// Stats returns the device's counters.
func (d *Device) Stats() Stats {
	return Stats{Flushes: d.flushes, Queued: d.queuedFl, QueueWait: d.queueWait}
}

// Reset clears the queue state and counters. Engines call it at the start of
// every run: runs restart virtual time at zero, so a backlog or arrival
// horizon left over from a previous run would be pure phantom contention.
func (d *Device) Reset() {
	d.backlog, d.horizon = 0, 0
	d.flushes, d.queuedFl, d.queueWait = 0, 0, 0
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s, flush %d, depth %d, socket %d)",
		d.spec.Name, d.spec.Class, d.spec.FlushLatency, d.spec.QueueDepth, d.spec.Socket)
}
