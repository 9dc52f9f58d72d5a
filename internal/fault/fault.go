// Package fault provides declarative, virtual-time fault schedules: ordered
// lists of hardware failure and recovery events — processor sockets failing
// and returning, log devices failing or degrading, a full crash followed by
// log recovery — that any scenario can attach to an engine run. Schedules are
// validated at construction against a machine descriptor (socket and device
// counts) and against their own state history, so an impossible timeline
// (failing an already-failed socket, degrading a failed device, out-of-order
// times) is rejected before a run starts rather than silently misfiring
// mid-experiment.
//
// The package deliberately knows nothing about the engine: it describes
// faults, the engine compiles a schedule into its run-time event mechanism.
// That keeps the dependency direction the same as for topology and device —
// scenarios compose descriptions, the engine executes them.
package fault

import (
	"fmt"
	"strings"

	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

// Kind labels one fault event type.
type Kind int

const (
	// KindFailSocket marks a processor socket failed (Section VI-D3's
	// processor failure).
	KindFailSocket Kind = iota + 1
	// KindRestoreSocket returns a failed socket to service: elastic capacity
	// the planner re-expands onto.
	KindRestoreSocket
	// KindFailDevice marks a log device failed; island logs bound to it are
	// re-homed to surviving devices.
	KindFailDevice
	// KindDegradeDevice multiplies a log device's service time by a latency
	// factor: the device works, slower.
	KindDegradeDevice
	// KindCrashAndRecover drops the volatile state covered by the write-ahead
	// logs mid-run and replays recovery from the retained records.
	KindCrashAndRecover
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFailSocket:
		return "fail-socket"
	case KindRestoreSocket:
		return "restore-socket"
	case KindFailDevice:
		return "fail-device"
	case KindDegradeDevice:
		return "degrade-device"
	case KindCrashAndRecover:
		return "crash-and-recover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fault at one virtual time. Use the constructors; only the
// fields relevant to the Kind are meaningful.
type Event struct {
	// At is the virtual time the fault fires.
	At vclock.Nanos
	// Kind is the fault type.
	Kind Kind
	// Socket is the target socket for socket events.
	Socket topology.SocketID
	// Device is the target device index for device events.
	Device int
	// LatencyFactor is the service-time multiplier for KindDegradeDevice.
	LatencyFactor float64
}

// FailSocket schedules a processor failure of socket s at virtual time at.
func FailSocket(at vclock.Nanos, s topology.SocketID) Event {
	return Event{At: at, Kind: KindFailSocket, Socket: s}
}

// RestoreSocket schedules the return of failed socket s at virtual time at.
func RestoreSocket(at vclock.Nanos, s topology.SocketID) Event {
	return Event{At: at, Kind: KindRestoreSocket, Socket: s}
}

// FailDevice schedules the failure of log device dev at virtual time at.
func FailDevice(at vclock.Nanos, dev int) Event {
	return Event{At: at, Kind: KindFailDevice, Device: dev}
}

// DegradeDevice schedules a slowdown of log device dev: from virtual time at
// on, its service times are multiplied by latencyFactor (>= 1; 1 restores
// full speed).
func DegradeDevice(at vclock.Nanos, dev int, latencyFactor float64) Event {
	return Event{At: at, Kind: KindDegradeDevice, Device: dev, LatencyFactor: latencyFactor}
}

// CrashAndRecover schedules a crash drill at virtual time at: volatile state
// covered by the logs is dropped and recovery replays the retained records.
func CrashAndRecover(at vclock.Nanos) Event {
	return Event{At: at, Kind: KindCrashAndRecover}
}

// String renders the event in the compact form reproducer descriptors use.
func (e Event) String() string {
	switch e.Kind {
	case KindFailSocket, KindRestoreSocket:
		return fmt.Sprintf("%s(%d)@%d", e.Kind, e.Socket, int64(e.At))
	case KindFailDevice:
		return fmt.Sprintf("%s(%d)@%d", e.Kind, e.Device, int64(e.At))
	case KindDegradeDevice:
		return fmt.Sprintf("%s(%d,x%g)@%d", e.Kind, e.Device, e.LatencyFactor, int64(e.At))
	default:
		return fmt.Sprintf("%s@%d", e.Kind, int64(e.At))
	}
}

// Machine describes the hardware a schedule targets: how many sockets the
// topology has and how many log devices the layout provisions (zero when the
// scenario runs without a device layout). Validation is against this
// descriptor, so a schedule can be built — and rejected — before any engine
// exists.
type Machine struct {
	Sockets int
	Devices int
}

// Schedule is a validated, time-ordered fault schedule. Construct with
// NewSchedule; the zero value is not usable.
type Schedule struct {
	machine Machine
	events  []Event
}

// NewSchedule validates the events against the machine descriptor and against
// their own history and returns the schedule. It rejects:
//
//   - non-positive or decreasing event times (faults at time zero would race
//     engine run setup; equal times are allowed and fire in order),
//   - unknown socket or device indices, and any device event when the
//     machine has no log devices,
//   - impossible transitions: failing a failed socket or device, restoring
//     an alive socket, degrading a failed device,
//   - schedules that leave no alive socket or no alive log device — the
//     model (like the engine) always keeps one of each to run on,
//   - degrade factors below one.
func NewSchedule(m Machine, events ...Event) (*Schedule, error) {
	if m.Sockets < 1 {
		return nil, fmt.Errorf("fault: machine must have at least one socket, got %d", m.Sockets)
	}
	if m.Devices < 0 {
		return nil, fmt.Errorf("fault: negative device count %d", m.Devices)
	}
	deadSockets := make([]bool, m.Sockets)
	deadDevices := make([]bool, m.Devices)
	aliveSockets, aliveDevices := m.Sockets, m.Devices
	var last vclock.Nanos
	for i, ev := range events {
		if ev.At <= 0 {
			return nil, fmt.Errorf("fault: event %d (%s) must fire at a positive virtual time", i, ev.Kind)
		}
		if ev.At < last {
			return nil, fmt.Errorf("fault: event %d (%s) at %d is out of order (previous event at %d)", i, ev.Kind, int64(ev.At), int64(last))
		}
		last = ev.At
		switch ev.Kind {
		case KindFailSocket, KindRestoreSocket:
			if int(ev.Socket) < 0 || int(ev.Socket) >= m.Sockets {
				return nil, fmt.Errorf("fault: event %d (%s) targets unknown socket %d (machine has %d)", i, ev.Kind, ev.Socket, m.Sockets)
			}
			if ev.Kind == KindFailSocket {
				if deadSockets[ev.Socket] {
					return nil, fmt.Errorf("fault: event %d fails socket %d, which an earlier event already failed", i, ev.Socket)
				}
				if aliveSockets == 1 {
					return nil, fmt.Errorf("fault: event %d would fail the last alive socket %d", i, ev.Socket)
				}
				deadSockets[ev.Socket] = true
				aliveSockets--
			} else {
				if !deadSockets[ev.Socket] {
					return nil, fmt.Errorf("fault: event %d restores socket %d, which is alive at that point of the schedule", i, ev.Socket)
				}
				deadSockets[ev.Socket] = false
				aliveSockets++
			}
		case KindFailDevice, KindDegradeDevice:
			if m.Devices == 0 {
				return nil, fmt.Errorf("fault: event %d (%s) targets a log device, but the machine has no device layout", i, ev.Kind)
			}
			if ev.Device < 0 || ev.Device >= m.Devices {
				return nil, fmt.Errorf("fault: event %d (%s) targets unknown device %d (layout has %d)", i, ev.Kind, ev.Device, m.Devices)
			}
			if ev.Kind == KindFailDevice {
				if deadDevices[ev.Device] {
					return nil, fmt.Errorf("fault: event %d fails device %d, which an earlier event already failed", i, ev.Device)
				}
				if aliveDevices == 1 {
					return nil, fmt.Errorf("fault: event %d would fail the last alive log device %d", i, ev.Device)
				}
				deadDevices[ev.Device] = true
				aliveDevices--
			} else {
				if deadDevices[ev.Device] {
					return nil, fmt.Errorf("fault: event %d degrades device %d, which an earlier event failed", i, ev.Device)
				}
				if ev.LatencyFactor < 1 {
					return nil, fmt.Errorf("fault: event %d degrade factor %v must be >= 1", i, ev.LatencyFactor)
				}
			}
		case KindCrashAndRecover:
			// No target to validate; the engine checks its own preconditions
			// (a serial run) when the schedule is attached.
		default:
			return nil, fmt.Errorf("fault: event %d has unknown kind %v", i, ev.Kind)
		}
	}
	return &Schedule{machine: m, events: append([]Event(nil), events...)}, nil
}

// Machine returns the machine descriptor the schedule was validated against.
func (s *Schedule) Machine() Machine { return s.machine }

// Events returns a copy of the schedule's events in firing order.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.events) }

// HasCrash reports whether the schedule contains a crash drill.
func (s *Schedule) HasCrash() bool {
	for _, ev := range s.events {
		if ev.Kind == KindCrashAndRecover {
			return true
		}
	}
	return false
}

// String renders the schedule compactly, e.g. for fuzzer reproducers.
func (s *Schedule) String() string {
	if len(s.events) == 0 {
		return "[]"
	}
	parts := make([]string, len(s.events))
	for i, ev := range s.events {
		parts[i] = ev.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
