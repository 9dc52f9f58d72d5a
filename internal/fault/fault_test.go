package fault

import (
	"slices"
	"strings"
	"testing"

	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

func ms(n int) vclock.Nanos { return vclock.Nanos(n) * vclock.Nanos(1e6) }

func TestScheduleValid(t *testing.T) {
	s, err := NewSchedule(Machine{Sockets: 4, Devices: 4},
		FailDevice(ms(1), 0),
		DegradeDevice(ms(2), 1, 4),
		FailSocket(ms(3), 3),
		CrashAndRecover(ms(3)), // equal times are allowed, fire in order
		RestoreSocket(ms(5), 3),
		FailSocket(ms(5), 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if !s.HasCrash() {
		t.Error("HasCrash should see the crash drill")
	}
	if got := s.Machine(); got.Sockets != 4 || got.Devices != 4 {
		t.Errorf("Machine = %+v", got)
	}
	if str := s.String(); !strings.Contains(str, "fail-device(0)") || !strings.Contains(str, "degrade-device(1,x4)") {
		t.Errorf("String = %q", str)
	}
	// Events returns a copy.
	evs := s.Events()
	evs[0].Device = 99
	if s.Events()[0].Device == 99 {
		t.Error("Events must return a copy")
	}
}

func TestScheduleRejectsInvalid(t *testing.T) {
	m := Machine{Sockets: 2, Devices: 2}
	cases := []struct {
		name   string
		m      Machine
		events []Event
		want   string
	}{
		{"no sockets", Machine{}, nil, "at least one socket"},
		{"negative devices", Machine{Sockets: 1, Devices: -1}, nil, "negative device count"},
		{"time zero", m, []Event{FailSocket(0, 0)}, "positive virtual time"},
		{"out of order", m, []Event{FailSocket(ms(2), 0), RestoreSocket(ms(1), 0)}, "out of order"},
		{"unknown socket", m, []Event{FailSocket(ms(1), 2)}, "unknown socket 2"},
		{"negative socket", m, []Event{FailSocket(ms(1), -1)}, "unknown socket"},
		{"unknown device", m, []Event{FailDevice(ms(1), 5)}, "unknown device 5"},
		{"device without layout", Machine{Sockets: 2}, []Event{FailDevice(ms(1), 0)}, "no device layout"},
		{"degrade without layout", Machine{Sockets: 2}, []Event{DegradeDevice(ms(1), 0, 2)}, "no device layout"},
		{"double socket failure", m, []Event{FailSocket(ms(1), 0), FailSocket(ms(2), 0)}, "already failed"},
		{"restore alive socket", m, []Event{RestoreSocket(ms(1), 1)}, "alive at that point"},
		{"last socket", m, []Event{FailSocket(ms(1), 0), FailSocket(ms(2), 1)}, "last alive socket"},
		{"double device failure", m, []Event{FailDevice(ms(1), 1), FailDevice(ms(2), 1)}, "already failed"},
		{"last device", m, []Event{FailDevice(ms(1), 0), FailDevice(ms(2), 1)}, "last alive log device"},
		{"degrade failed device", m, []Event{FailDevice(ms(1), 0), DegradeDevice(ms(2), 0, 2)}, "an earlier event failed"},
		{"degrade factor", m, []Event{DegradeDevice(ms(1), 0, 0.5)}, "must be >= 1"},
		{"unknown kind", m, []Event{{At: ms(1), Kind: Kind(42)}}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSchedule(tc.m, tc.events...)
			if err == nil {
				t.Fatalf("NewSchedule accepted %v", tc.events)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScheduleRestoreReenablesFailure(t *testing.T) {
	// fail -> restore -> fail the same socket again is a legal timeline.
	if _, err := NewSchedule(Machine{Sockets: 2},
		FailSocket(ms(1), 1), RestoreSocket(ms(2), 1), FailSocket(ms(3), 1)); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindFailSocket: "fail-socket", KindRestoreSocket: "restore-socket",
		KindFailDevice: "fail-device", KindDegradeDevice: "degrade-device",
		KindCrashAndRecover: "crash-and-recover", Kind(9): "Kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// decodeSchedule turns fuzz bytes into a machine and an event stream. The
// first byte is the machine (1-4 sockets, 0-3 devices); each following pair
// (a, b) is one event: kind a&7 (0, 6 and 7 are unknown kinds), target
// index a>>3&7 - 1 (so -1 and indices past the machine occur), time step
// b&3 - 1 relative to the previous event (so zero, negative, equal and
// decreasing times occur) and degrade factor (b>>2&7)/2 (below 1 occurs).
func decodeSchedule(data []byte) (Machine, []Event) {
	if len(data) == 0 {
		return Machine{Sockets: 1}, nil
	}
	m := Machine{Sockets: 1 + int(data[0]&3), Devices: int(data[0] >> 2 & 3)}
	var events []Event
	var at vclock.Nanos
	for i := 1; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		at += vclock.Nanos(int(b&3) - 1)
		idx := int(a>>3&7) - 1
		events = append(events, Event{
			At:            at,
			Kind:          Kind(a & 7),
			Socket:        topology.SocketID(idx),
			Device:        idx,
			LatencyFactor: float64(b>>2&7) / 2,
		})
	}
	return m, events
}

// replayAccepts is the reference for NewSchedule: it replays the stream on
// per-socket and per-device alive flags, counting the survivors afresh at
// every step, and accepts exactly the streams whose every event is legal at
// its point of the timeline.
func replayAccepts(m Machine, events []Event) bool {
	if m.Sockets < 1 || m.Devices < 0 {
		return false
	}
	socketUp := make([]bool, m.Sockets)
	deviceUp := make([]bool, m.Devices)
	for i := range socketUp {
		socketUp[i] = true
	}
	for i := range deviceUp {
		deviceUp[i] = true
	}
	countUp := func(up []bool) int {
		n := 0
		for _, u := range up {
			if u {
				n++
			}
		}
		return n
	}
	for i, ev := range events {
		if ev.At <= 0 || (i > 0 && ev.At < events[i-1].At) {
			return false
		}
		s, d := int(ev.Socket), ev.Device
		switch ev.Kind {
		case KindFailSocket:
			if s < 0 || s >= m.Sockets || !socketUp[s] || countUp(socketUp) < 2 {
				return false
			}
			socketUp[s] = false
		case KindRestoreSocket:
			if s < 0 || s >= m.Sockets || socketUp[s] {
				return false
			}
			socketUp[s] = true
		case KindFailDevice:
			if d < 0 || d >= m.Devices || !deviceUp[d] || countUp(deviceUp) < 2 {
				return false
			}
			deviceUp[d] = false
		case KindDegradeDevice:
			if d < 0 || d >= m.Devices || !deviceUp[d] || ev.LatencyFactor < 1 {
				return false
			}
		case KindCrashAndRecover:
		default:
			return false
		}
	}
	return true
}

// FuzzNewSchedule holds NewSchedule to the reference replay: it accepts
// exactly the streams the replay accepts, every prefix of an accepted stream
// is accepted too, and applying an accepted schedule's events leaves an alive
// socket — and an alive device when the machine has any — after every event.
func FuzzNewSchedule(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x0d, 0x09, 0x02, 0x13, 0x01, 0x1c, 0x12, 0x05, 0x02, 0x0a, 0x02}) // 2 sockets, 3 devices: every kind, accepted
	f.Add([]byte{0x01, 0x09, 0x02, 0x11, 0x02})                                     // failing both sockets of two
	f.Add([]byte{0x00, 0x0b, 0x02})                                                 // a device fault on a machine without devices
	f.Add([]byte{0x03, 0x09, 0x03, 0x11, 0x00})                                     // a second event earlier than the first
	f.Add([]byte{0x04, 0x0b, 0x02})                                                 // failing the only device
	f.Add([]byte{0x00, 0x00, 0x02})                                                 // an unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		m, events := decodeSchedule(data)
		s, err := NewSchedule(m, events...)
		if want := replayAccepts(m, events); (err == nil) != want {
			t.Fatalf("NewSchedule(%+v, %v): err = %v, reference accepts = %v", m, events, err, want)
		}
		if err != nil {
			return
		}
		got := s.Events()
		if len(got) != len(events) {
			t.Fatalf("accepted schedule has %d events, want %d", len(got), len(events))
		}
		socketsDown, devicesDown := make([]bool, m.Sockets), make([]bool, m.Devices)
		for i, ev := range got {
			if ev != events[i] {
				t.Fatalf("event %d = %v, want %v", i, ev, events[i])
			}
			if _, err := NewSchedule(m, events[:i+1]...); err != nil {
				t.Fatalf("prefix of %d events of an accepted schedule rejected: %v", i+1, err)
			}
			switch ev.Kind {
			case KindFailSocket:
				socketsDown[ev.Socket] = true
			case KindRestoreSocket:
				socketsDown[ev.Socket] = false
			case KindFailDevice:
				devicesDown[ev.Device] = true
			}
			if !slices.Contains(socketsDown, false) {
				t.Fatalf("after event %d (%v) no socket is alive", i, ev)
			}
			if m.Devices > 0 && !slices.Contains(devicesDown, false) {
				t.Fatalf("after event %d (%v) no device is alive", i, ev)
			}
		}
	})
}
