package fault

import (
	"strings"
	"testing"

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
