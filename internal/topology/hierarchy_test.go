package topology

import (
	"testing"
)

// checkDistanceMatrix asserts the four distance-matrix properties every
// machine shape must satisfy: zero diagonal, symmetry, the triangle
// inequality, and a maximum hop bound.
func checkDistanceMatrix(t *testing.T, what string, d [][]int, maxHop int) {
	t.Helper()
	n := len(d)
	for i := 0; i < n; i++ {
		if len(d[i]) != n {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(d[i]), n)
		}
		if d[i][i] != 0 {
			t.Errorf("%s: nonzero diagonal at %d: %d", what, i, d[i][i])
		}
		for j := 0; j < n; j++ {
			if d[i][j] != d[j][i] {
				t.Errorf("%s: asymmetric at (%d,%d): %d vs %d", what, i, j, d[i][j], d[j][i])
			}
			if i != j && d[i][j] < 1 {
				t.Errorf("%s: distinct nodes (%d,%d) at distance %d, want >= 1", what, i, j, d[i][j])
			}
			if d[i][j] > maxHop {
				t.Errorf("%s: distance (%d,%d) = %d exceeds max hop bound %d", what, i, j, d[i][j], maxHop)
			}
			for k := 0; k < n; k++ {
				if d[i][j] > d[i][k]+d[k][j] {
					t.Errorf("%s: triangle inequality violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
						what, i, j, d[i][j], i, k, k, j, d[i][k]+d[k][j])
				}
			}
		}
	}
}

func TestTwistedCubeDistancePropertiesAcrossSizes(t *testing.T) {
	for n := 1; n <= 16; n++ {
		// The twisted cube reaches every socket in at most two hops.
		checkDistanceMatrix(t, "twisted-cube", TwistedCubeDistance(n), 2)
	}
}

func TestProfileDistanceProperties(t *testing.T) {
	for _, p := range Profiles() {
		top := p.Build()
		// Socket-level matrix: reconstruct through the public accessor.
		n := top.Sockets()
		sd := make([][]int, n)
		for i := range sd {
			sd[i] = make([]int, n)
			for j := range sd[i] {
				sd[i][j] = top.Distance(SocketID(i), SocketID(j))
			}
		}
		checkDistanceMatrix(t, p.Name+"/sockets", sd, top.MaxDistance())
		// Die-level matrix within one socket.
		if top.DiesPerSocket() > 1 {
			m := top.DiesPerSocket()
			dd := make([][]int, m)
			for i := range dd {
				dd[i] = make([]int, m)
				for j := range dd[i] {
					dd[i][j] = top.DieHops(DieID(i), DieID(j))
				}
			}
			checkDistanceMatrix(t, p.Name+"/dies", dd, top.MaxDieDistance())
		}
		// The machine's level list spans core to machine.
		levels := top.DistinctLevels()
		if levels[0] != LevelCore || levels[len(levels)-1] != LevelMachine {
			t.Errorf("%s: levels %v should span core..machine", p.Name, levels)
		}
	}
}

func TestDieStructure(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 8, DiesPerSocket: 4})
	if top.NumDies() != 8 || top.DiesPerSocket() != 4 || !top.Hierarchical() {
		t.Fatalf("unexpected die structure: %d dies, %d per socket", top.NumDies(), top.DiesPerSocket())
	}
	// 2 cores per die, dies numbered densely across sockets.
	for i, c := range top.Cores() {
		wantDie := DieID(i / 2)
		if c.Die != wantDie {
			t.Errorf("core %d on die %d, want %d", i, c.Die, wantDie)
		}
		if top.DieOf(c.ID) != wantDie {
			t.Errorf("DieOf(%d) = %d, want %d", c.ID, top.DieOf(c.ID), wantDie)
		}
	}
	if top.DieOf(CoreID(99)) != InvalidDie {
		t.Error("DieOf(unknown) should be InvalidDie")
	}
	if top.SocketOfDie(3) != 0 || top.SocketOfDie(4) != 1 {
		t.Errorf("SocketOfDie mapping wrong: %d, %d", top.SocketOfDie(3), top.SocketOfDie(4))
	}
	if top.SocketOfDie(99) != InvalidSocket {
		t.Error("SocketOfDie(unknown) should be InvalidSocket")
	}
	// Die hops: same die 0, distinct dies of one socket 1 (uniform default),
	// dies of different sockets 0 (socket axis covers them).
	if top.DieHops(0, 0) != 0 || top.DieHops(0, 1) != 1 || top.DieHops(0, 4) != 0 {
		t.Errorf("DieHops = %d,%d,%d", top.DieHops(0, 0), top.DieHops(0, 1), top.DieHops(0, 4))
	}
	if top.DieHops(-1, 0) != top.MaxDieDistance() {
		t.Error("unknown die should report the max die distance")
	}
}

func TestSharedLevelAndCorePath(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 4, DiesPerSocket: 2})
	cases := []struct {
		a, b     CoreID
		sockHops int
		dieHops  int
	}{
		{0, 0, 0, 0},
		{0, 1, 0, 0}, // same die
		{0, 2, 0, 1}, // same socket, different die
		{0, 4, 1, 0},
		{0, 99, top.MaxDistance(), 0},
	}
	for _, tc := range cases {
		s, d := top.CorePath(tc.a, tc.b)
		if s != tc.sockHops || d != tc.dieHops {
			t.Errorf("CorePath(%d,%d) = (%d,%d), want (%d,%d)", tc.a, tc.b, s, d, tc.sockHops, tc.dieHops)
		}
	}
}

func TestIslandEnumeration(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 4, DiesPerSocket: 2})
	wantCounts := map[Level]int{LevelCore: 8, LevelDie: 4, LevelSocket: 2, LevelMachine: 1}
	for level, want := range wantCounts {
		if got := top.NumIslandsAt(level); got != want {
			t.Errorf("NumIslandsAt(%v) = %d, want %d", level, got, want)
		}
		islands := top.IslandsAt(level)
		if len(islands) != want {
			t.Fatalf("IslandsAt(%v) returned %d islands, want %d", level, len(islands), want)
		}
		seen := 0
		for i, isl := range islands {
			if isl.Index != i || isl.Level != level {
				t.Errorf("%v island %d has index %d level %v", level, i, isl.Index, isl.Level)
			}
			for _, c := range isl.Cores {
				if top.IslandOf(c.ID, level) != i {
					t.Errorf("IslandOf(%d, %v) = %d, want %d", c.ID, level, top.IslandOf(c.ID, level), i)
				}
				seen++
			}
		}
		if seen != top.NumCores() {
			t.Errorf("%v islands cover %d cores, want %d", level, seen, top.NumCores())
		}
	}
	// Die islands carry their enclosing socket; machine islands of a
	// multisocket box have none.
	if isl := top.IslandsAt(LevelDie)[3]; isl.Socket != 1 {
		t.Errorf("die island 3 on socket %d, want 1", isl.Socket)
	}
	if isl := top.IslandsAt(LevelMachine)[0]; isl.Socket != InvalidSocket {
		t.Errorf("machine island socket = %d, want InvalidSocket", isl.Socket)
	}
	if top.IslandsAt(Level(0)) != nil || top.NumIslandsAt(Level(99)) != 0 {
		t.Error("invalid levels should enumerate nothing")
	}
	if top.IslandOf(0, Level(0)) != -1 || top.IslandOf(CoreID(99), LevelCore) != -1 {
		t.Error("invalid island lookups should return -1")
	}
}

func TestAliveIslandsFiltering(t *testing.T) {
	top := MustNew(Config{Sockets: 2, CoresPerSocket: 4, DiesPerSocket: 2})
	if err := top.FailSocket(1); err != nil {
		t.Fatal(err)
	}
	if got := len(top.AliveIslandsAt(LevelDie)); got != 2 {
		t.Errorf("alive die islands = %d, want 2 (socket 1's dies gone)", got)
	}
	if got := len(top.AliveIslandsAt(LevelSocket)); got != 1 {
		t.Errorf("alive socket islands = %d, want 1", got)
	}
	machine := top.AliveIslandsAt(LevelMachine)
	if len(machine) != 1 || len(machine[0].Cores) != 4 {
		t.Errorf("machine island should survive with 4 alive cores, got %+v", machine)
	}
	for _, c := range machine[0].Cores {
		if c.Socket == 1 {
			t.Errorf("core %d of failed socket still listed", c.ID)
		}
	}
	if err := top.RestoreSocket(1); err != nil {
		t.Fatal(err)
	}
	if got := len(top.AliveIslandsAt(LevelDie)); got != 4 {
		t.Errorf("alive die islands after restore = %d, want 4", got)
	}
}

// TestNewProfileShapes pins the shape of the one-socket consumer part: it
// distinguishes die islands but not socket islands.
func TestNewProfileShapes(t *testing.T) {
	consumer, err := BuildProfile("consumer-1s4d")
	if err != nil {
		t.Fatal(err)
	}
	if consumer.Sockets() != 1 || consumer.NumDies() != 4 || !consumer.Hierarchical() {
		t.Errorf("consumer-1s4d shape wrong: %s", consumer)
	}
	levels := consumer.DistinctLevels()
	want := []Level{LevelCore, LevelDie, LevelMachine}
	if len(levels) != len(want) {
		t.Fatalf("consumer levels = %v, want %v", levels, want)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("consumer levels = %v, want %v", levels, want)
		}
	}
}

// TestIslandEnumerationAcrossFailureEpochs mirrors the planner's view of the
// machine when a socket dies between two epochs: AliveIslandsAt must drop the
// dead socket's islands at every level while preserving the index mapping
// IslandOf still reports, and no surviving island may list a dead core —
// which is what guarantees a level change never homes a site on dead
// hardware.
func TestIslandEnumerationAcrossFailureEpochs(t *testing.T) {
	top := MustNew(Config{Sockets: 4, CoresPerSocket: 4, DiesPerSocket: 2})
	epochBefore := top.Epoch()
	if err := top.FailSocket(2); err != nil {
		t.Fatal(err)
	}
	if top.Epoch() == epochBefore {
		t.Fatal("socket failure must advance the liveness epoch")
	}
	for _, level := range top.DistinctLevels() {
		alive := top.AliveIslandsAt(level)
		for _, isl := range alive {
			if len(isl.Cores) == 0 {
				t.Fatalf("%v island %d has no cores", level, isl.Index)
			}
			for _, c := range isl.Cores {
				if !top.Alive(c.Socket) {
					t.Errorf("%v island %d lists core %d on dead socket %d", level, isl.Index, c.ID, c.Socket)
				}
				// The index mapping survives the failure: a member core still
				// maps to its island's position in the full enumeration.
				if got := top.IslandOf(c.ID, level); got != isl.Index {
					t.Errorf("IslandOf(%d, %v) = %d, island reports index %d", c.ID, level, got, isl.Index)
				}
			}
		}
	}
	// Exactly socket 2's islands are gone.
	if got := len(top.AliveIslandsAt(LevelDie)); got != 6 {
		t.Errorf("alive die islands = %d, want 6", got)
	}
	if got := len(top.AliveIslandsAt(LevelSocket)); got != 3 {
		t.Errorf("alive socket islands = %d, want 3", got)
	}
	// Dead cores still resolve to their (dead) island index — the caller
	// filters by liveness, the mapping itself stays total.
	deadCore := top.CoresOn(2)[0].ID
	if got := top.IslandOf(deadCore, LevelSocket); got != 2 {
		t.Errorf("IslandOf(dead core, socket) = %d, want 2", got)
	}
}

func TestLevelParseAndOrdering(t *testing.T) {
	for _, l := range Levels() {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
		if !l.Valid() {
			t.Errorf("%v should be valid", l)
		}
	}
	if _, err := ParseLevel("chip"); err == nil {
		t.Error("ParseLevel(chip) should fail")
	}
	if Level(0).Valid() || Level(9).Valid() {
		t.Error("out-of-range levels should be invalid")
	}
	if !(LevelCore < LevelDie && LevelDie < LevelSocket && LevelSocket < LevelMachine) {
		t.Error("levels must order finest to coarsest")
	}
}

func TestProfileLookup(t *testing.T) {
	if _, ok := ProfileByName("paper-8s"); !ok {
		t.Fatal("paper-8s profile missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile should miss")
	}
	if _, err := BuildProfile("nope"); err == nil {
		t.Fatal("BuildProfile(nope) should fail")
	}
	top, err := BuildProfile("chiplet-2s4d")
	if err != nil {
		t.Fatal(err)
	}
	if !top.Hierarchical() || top.NumCores() != 32 || top.NumDies() != 8 {
		t.Errorf("chiplet profile shape wrong: %s", top)
	}
	if len(ProfileNames()) != len(Profiles()) {
		t.Error("ProfileNames length mismatch")
	}
	// The paper profile matches Default().
	paper, _ := ProfileByName("paper-8s")
	pt := paper.Build()
	dt := Default()
	if pt.Sockets() != dt.Sockets() || pt.CoresPerSocket() != dt.CoresPerSocket() {
		t.Error("paper-8s should match Default()")
	}
	for i := 0; i < pt.Sockets(); i++ {
		for j := 0; j < pt.Sockets(); j++ {
			if pt.Distance(SocketID(i), SocketID(j)) != dt.Distance(SocketID(i), SocketID(j)) {
				t.Fatalf("paper-8s distance (%d,%d) differs from Default", i, j)
			}
		}
	}
}
