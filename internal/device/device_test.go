package device

import (
	"testing"

	"atrapos/internal/topology"
	"atrapos/internal/vclock"
)

func TestFlushQueueing(t *testing.T) {
	d := New(Spec{Name: "d", Class: "sata", FlushLatency: 100, QueueDepth: 1})
	// First flush at t=0: no wait, pure service.
	if got := d.Flush(0, 0); got != 100 {
		t.Fatalf("first flush cost %d, want 100", got)
	}
	// Second flush also at t=0: the channel is busy until 100, so it waits
	// 100 and then pays its own service.
	if got := d.Flush(0, 0); got != 200 {
		t.Fatalf("queued flush cost %d, want 200", got)
	}
	// A flush arriving after the queue drained pays only service.
	if got := d.Flush(500, 0); got != 100 {
		t.Fatalf("late flush cost %d, want 100", got)
	}
	st := d.Stats()
	if st.Flushes != 3 || st.Queued != 1 || st.QueueWait != 100 {
		t.Fatalf("stats = %+v, want 3 flushes, 1 queued, 100 wait", st)
	}
}

func TestFlushQueueDepthAbsorbsParallelism(t *testing.T) {
	d := New(Spec{Name: "d", Class: "nvme", FlushLatency: 100, QueueDepth: 2})
	// The deeper queue halves the wait behind a given backlog: flushes drain
	// through two channels in parallel.
	if got := d.Flush(0, 0); got != 100 {
		t.Fatalf("flush 1 cost %d, want 100", got)
	}
	if got := d.Flush(0, 0); got != 150 {
		t.Fatalf("flush 2 cost %d, want 150 (100 backlog over 2 channels)", got)
	}
	if got := d.Flush(0, 0); got != 200 {
		t.Fatalf("flush 3 cost %d, want 200 (200 backlog over 2 channels)", got)
	}
	// The same arrivals on a depth-1 device wait twice as long.
	shallow := New(Spec{FlushLatency: 100, QueueDepth: 1})
	shallow.Flush(0, 0)
	if got := shallow.Flush(0, 0); got != 200 {
		t.Fatalf("depth-1 flush 2 cost %d, want 200", got)
	}
}

func TestFlushSkewDoesNotCompound(t *testing.T) {
	// A flush issued with a clock far behind the device's latest arrival must
	// not pay the skew as contention: waits are bounded by the backlog, not
	// by the distance between unsynchronized per-core clocks.
	d := New(Spec{FlushLatency: 100, QueueDepth: 1})
	d.Flush(1_000_000, 0)
	if got := d.Flush(0, 0); got != 200 {
		t.Fatalf("lagging flush cost %d, want 200 (service + 100 backlog, not 1ms of skew)", got)
	}
}

func TestFlushPerByteCost(t *testing.T) {
	d := New(Spec{FlushLatency: 100, PerByteCost: 2, QueueDepth: 1})
	if got := d.Flush(0, 50); got != 200 {
		t.Fatalf("flush with 50 bytes cost %d, want 100+2*50", got)
	}
	if got := d.Service(10); got != 120 {
		t.Fatalf("service(10) = %d, want 120", got)
	}
}

func TestReset(t *testing.T) {
	d := New(Spec{FlushLatency: 100, QueueDepth: 1})
	d.Flush(0, 0)
	d.Flush(0, 0)
	d.Reset()
	if got := d.Flush(0, 0); got != 100 {
		t.Fatalf("flush after reset cost %d, want 100 (no phantom queue)", got)
	}
	if st := d.Stats(); st.Flushes != 1 || st.Queued != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestNormalization(t *testing.T) {
	d := New(Spec{FlushLatency: -5, PerByteCost: -1, QueueDepth: 0})
	if s := d.Spec(); s.QueueDepth != 1 || s.FlushLatency != 0 || s.PerByteCost != 0 {
		t.Fatalf("degenerate spec not normalized: %+v", s)
	}
	if got := d.Flush(0, 100); got != 0 {
		t.Fatalf("zero-cost device flush cost %d, want 0", got)
	}
}

func TestLayoutPerSocket(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 16, DiesPerSocket: 4})
	l, ok := LayoutByName("nvme-per-socket")
	if !ok {
		t.Fatal("nvme-per-socket missing")
	}
	m := l.Build(top)
	if m.NumDevices() != 2 {
		t.Fatalf("per-socket layout built %d devices on a 2-socket box, want 2", m.NumDevices())
	}
	for d := 0; d < top.NumDies(); d++ {
		dev := m.DeviceFor(topology.DieID(d))
		if dev.Spec().Socket != top.SocketOfDie(topology.DieID(d)) {
			t.Errorf("die %d served by device on socket %d, want its own socket %d",
				d, dev.Spec().Socket, top.SocketOfDie(topology.DieID(d)))
		}
	}
}

func TestLayoutPerDiePair(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 2, CoresPerSocket: 16, DiesPerSocket: 4})
	l, _ := LayoutByName("nvme-per-die-pair")
	m := l.Build(top)
	if m.NumDevices() != 4 {
		t.Fatalf("die-pair layout built %d devices for 8 dies, want 4", m.NumDevices())
	}
	for d := 0; d < top.NumDies(); d += 2 {
		if m.DeviceFor(topology.DieID(d)) != m.DeviceFor(topology.DieID(d+1)) {
			t.Errorf("dies %d and %d should share one device", d, d+1)
		}
	}
	if m.DeviceFor(0) == m.DeviceFor(2) {
		t.Error("dies 0 and 2 are different pairs and should not share a device")
	}
}

func TestLayoutSingle(t *testing.T) {
	top := topology.MustNew(topology.Config{Sockets: 4, CoresPerSocket: 4})
	l, _ := LayoutByName("single-sata")
	m := l.Build(top)
	if m.NumDevices() != 1 {
		t.Fatalf("single layout built %d devices, want 1", m.NumDevices())
	}
	for d := 0; d < top.NumDies(); d++ {
		if m.DeviceFor(topology.DieID(d)) != m.Devices()[0] {
			t.Errorf("die %d not served by the single device", d)
		}
	}
	// Unknown dies fall back to device 0.
	if m.DeviceFor(topology.InvalidDie) != m.Devices()[0] {
		t.Error("invalid die should fall back to device 0")
	}
}

func TestLayoutOddDieCount(t *testing.T) {
	// 3 sockets x 1 die: the die-pair layout must cover the odd last die.
	top := topology.MustNew(topology.Config{Sockets: 3, CoresPerSocket: 2})
	l, _ := LayoutByName("nvme-per-die-pair")
	m := l.Build(top)
	if m.NumDevices() != 2 {
		t.Fatalf("die-pair layout built %d devices for 3 dies, want 2", m.NumDevices())
	}
	if m.DeviceFor(2) == nil || m.DeviceFor(2) != m.Devices()[1] {
		t.Error("odd last die should have its own device")
	}
}

func TestBuildLayoutUnknown(t *testing.T) {
	top := topology.Small()
	if _, err := BuildLayout("floppy", top); err == nil {
		t.Fatal("unknown layout should error")
	}
	m, err := BuildLayout("nvme-per-socket", top)
	if err != nil || m.Layout() != "nvme-per-socket" {
		t.Fatalf("BuildLayout failed: %v", err)
	}
}

func TestMapReset(t *testing.T) {
	top := topology.Small()
	m, _ := BuildLayout("single-sata", top)
	m.DeviceFor(0).Flush(0, 0)
	m.DeviceFor(0).Flush(0, 0)
	if st := m.Stats(); st.Flushes != 2 || st.Queued != 1 {
		t.Fatalf("map stats = %+v, want 2 flushes 1 queued", st)
	}
	m.Reset()
	if st := m.Stats(); st.Flushes != 0 {
		t.Fatalf("map stats not reset: %+v", st)
	}
	var zero vclock.Nanos
	if got := m.DeviceFor(0).Flush(zero, 0); got != m.DeviceFor(0).Service(0) {
		t.Fatal("queue state not reset")
	}
}

// TestProfileLayoutsResolve checks every layout instantiates cleanly on every
// machine profile (any layout pairs with any machine) and maps every die of
// the machine to a device.
func TestProfileLayoutsResolve(t *testing.T) {
	for _, p := range topology.Profiles() {
		for _, l := range Layouts() {
			top := p.Build()
			m, err := BuildLayout(l.Name, top)
			if err != nil {
				t.Errorf("profile %s, layout %s: %v", p.Name, l.Name, err)
				continue
			}
			for d := 0; d < top.NumDies(); d++ {
				if m.DeviceFor(topology.DieID(d)) == nil {
					t.Errorf("profile %s, layout %s: die %d has no device", p.Name, l.Name, d)
				}
			}
		}
	}
}
