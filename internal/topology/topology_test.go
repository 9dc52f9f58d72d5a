package topology

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero sockets", Config{Sockets: 0, CoresPerSocket: 1}, false},
		{"zero cores", Config{Sockets: 1, CoresPerSocket: 0}, false},
		{"single core", Config{Sockets: 1, CoresPerSocket: 1}, true},
		{"default eight", Config{Sockets: 8, CoresPerSocket: 10}, true},
		{"bad matrix rows", Config{Sockets: 2, CoresPerSocket: 1, Distance: [][]int{{0}}}, false},
		{"bad matrix cols", Config{Sockets: 2, CoresPerSocket: 1, Distance: [][]int{{0}, {0, 1}}}, false},
		{"nonzero diagonal", Config{Sockets: 2, CoresPerSocket: 1, Distance: [][]int{{1, 1}, {1, 0}}}, false},
		{"asymmetric", Config{Sockets: 2, CoresPerSocket: 1, Distance: [][]int{{0, 1}, {2, 0}}}, false},
		{"negative", Config{Sockets: 2, CoresPerSocket: 1, Distance: [][]int{{0, -1}, {-1, 0}}}, false},
		{"valid explicit", Config{Sockets: 2, CoresPerSocket: 2, Distance: [][]int{{0, 1}, {1, 0}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.ok && err != nil {
				t.Fatalf("New(%+v) unexpected error: %v", tc.cfg, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("New(%+v) expected error, got nil", tc.cfg)
			}
		})
	}
}

func TestCoreNumbering(t *testing.T) {
	top := MustNew(Config{Sockets: 3, CoresPerSocket: 4})
	if got := top.NumCores(); got != 12 {
		t.Fatalf("NumCores = %d, want 12", got)
	}
	for i, c := range top.Cores() {
		if int(c.ID) != i {
			t.Errorf("core %d has ID %d", i, c.ID)
		}
		wantSocket := SocketID(i / 4)
		if c.Socket != wantSocket {
			t.Errorf("core %d on socket %d, want %d", i, c.Socket, wantSocket)
		}
		if c.LocalIndex != i%4 {
			t.Errorf("core %d local index %d, want %d", i, c.LocalIndex, i%4)
		}
	}
	if s := top.SocketOf(CoreID(7)); s != 1 {
		t.Errorf("SocketOf(7) = %d, want 1", s)
	}
	if s := top.SocketOf(CoreID(99)); s != InvalidSocket {
		t.Errorf("SocketOf(99) = %d, want InvalidSocket", s)
	}
	if _, err := top.Core(CoreID(-1)); err == nil {
		t.Error("Core(-1) expected error")
	}
	if c, err := top.Core(CoreID(5)); err != nil || c.Socket != 1 {
		t.Errorf("Core(5) = %+v, %v", c, err)
	}
}

func TestCoresOn(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 3})
	s1 := top.CoresOn(1)
	if len(s1) != 3 {
		t.Fatalf("CoresOn(1) has %d cores, want 3", len(s1))
	}
	for _, c := range s1 {
		if c.Socket != 1 {
			t.Errorf("core %d reported on socket %d", c.ID, c.Socket)
		}
	}
	if got := top.CoresOn(5); got != nil {
		t.Errorf("CoresOn(5) = %v, want nil", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	top := Default()
	if top.Sockets() != 8 || top.CoresPerSocket() != 10 {
		t.Fatalf("Default topology is %s", top)
	}
	for i := 0; i < top.Sockets(); i++ {
		if d := top.Distance(SocketID(i), SocketID(i)); d != 0 {
			t.Errorf("Distance(%d,%d) = %d, want 0", i, i, d)
		}
		for j := 0; j < top.Sockets(); j++ {
			d := top.Distance(SocketID(i), SocketID(j))
			if d != top.Distance(SocketID(j), SocketID(i)) {
				t.Errorf("distance not symmetric at (%d,%d)", i, j)
			}
			if i != j && d < 1 {
				t.Errorf("Distance(%d,%d) = %d, want >= 1", i, j, d)
			}
		}
	}
	if top.MaxDistance() < 1 {
		t.Errorf("MaxDistance = %d, want >= 1", top.MaxDistance())
	}
	// Unknown sockets are conservatively expensive.
	if d := top.Distance(SocketID(-1), SocketID(0)); d != top.MaxDistance() {
		t.Errorf("Distance(-1,0) = %d, want max %d", d, top.MaxDistance())
	}
}

func TestCoreDistance(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 2})
	if d, _ := top.CorePath(0, 1); d != 0 {
		t.Errorf("same-socket core distance = %d, want 0", d)
	}
	if d, _ := top.CorePath(0, 3); d != 1 {
		t.Errorf("cross-socket core distance = %d, want 1", d)
	}
}

func TestSingleSocket(t *testing.T) {
	top := MustNew(Config{Sockets: 1, CoresPerSocket: 8})
	if d := top.MaxDistance(); d != 0 {
		t.Errorf("MaxDistance on 1 socket = %d, want 0", d)
	}
}

func TestFailAndRestoreSocket(t *testing.T) {
	top := Small()
	if !top.Alive(2) {
		t.Fatal("socket 2 should start alive")
	}
	if err := top.FailSocket(2); err != nil {
		t.Fatal(err)
	}
	if top.Alive(2) {
		t.Error("socket 2 should be failed")
	}
	alive := top.AliveSockets()
	if len(alive) != 3 {
		t.Errorf("AliveSockets = %v, want 3 entries", alive)
	}
	cores := top.AliveCores()
	if len(cores) != 12 {
		t.Errorf("AliveCores returned %d cores, want 12", len(cores))
	}
	for _, c := range cores {
		if c.Socket == 2 {
			t.Errorf("core %d on failed socket still reported alive", c.ID)
		}
	}
	if err := top.RestoreSocket(2); err != nil {
		t.Fatal(err)
	}
	if !top.Alive(2) {
		t.Error("socket 2 should be alive after restore")
	}
	if err := top.FailSocket(99); err == nil {
		t.Error("FailSocket(99) expected error")
	}
	if err := top.RestoreSocket(99); err == nil {
		t.Error("RestoreSocket(99) expected error")
	}
	if top.Alive(SocketID(99)) {
		t.Error("unknown socket must not report alive")
	}
}

func TestTrafficCounters(t *testing.T) {
	top := Small()
	top.RecordTraffic(0, 0, 1000)
	top.RecordTraffic(0, 1, 500)
	top.RecordTraffic(1, 3, 500)
	st := top.Traffic()
	if st.LocalBytes != 1000 {
		t.Errorf("LocalBytes = %d, want 1000", st.LocalBytes)
	}
	if st.InterconnectBytes != 1000 {
		t.Errorf("InterconnectBytes = %d, want 1000", st.InterconnectBytes)
	}
	if r := top.QPIToIMCRatio(); r != 1.0 {
		t.Errorf("QPIToIMCRatio = %f, want 1.0", r)
	}
	top.ResetTraffic()
	if st := top.Traffic(); st.LocalBytes != 0 || st.InterconnectBytes != 0 {
		t.Errorf("traffic not reset: %+v", st)
	}
	if r := top.QPIToIMCRatio(); r != 0 {
		t.Errorf("QPIToIMCRatio with no traffic = %f, want 0", r)
	}
	// Traffic from an unknown socket is ignored rather than panicking.
	top.RecordTraffic(-1, 0, 100)
	if st := top.Traffic(); st.LocalBytes != 0 || st.InterconnectBytes != 0 {
		t.Errorf("unknown-socket traffic should be dropped, got %+v", st)
	}
}

func TestTwistedCubeDistanceProperties(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%12) + 1
		d := TwistedCubeDistance(n)
		if len(d) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if d[i][i] != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if d[i][j] != d[j][i] || d[i][j] < 0 || d[i][j] > 2 {
					return false
				}
				if i != j && d[i][j] == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTwistedCubeHasShortAndLongLinks(t *testing.T) {
	d := TwistedCubeDistance(8)
	ones, twos := 0, 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			switch d[i][j] {
			case 1:
				ones++
			case 2:
				twos++
			}
		}
	}
	if ones == 0 || twos == 0 {
		t.Errorf("twisted cube should mix 1-hop and 2-hop links, got %d ones and %d twos", ones, twos)
	}
}

func TestStringer(t *testing.T) {
	top := Default()
	if top.String() == "" || top.Name() == "" {
		t.Error("String/Name must be non-empty")
	}
}
