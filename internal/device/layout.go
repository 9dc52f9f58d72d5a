package device

import (
	"fmt"
	"sort"
	"strings"

	"atrapos/internal/topology"
)

// Scope says how many physical devices a layout provisions on a machine.
type Scope int

const (
	// ScopePerSocket provisions one device per socket, attached to the
	// socket's first die (the IO-die layout of chiplet parts).
	ScopePerSocket Scope = iota + 1
	// ScopePerDiePair provisions one device per pair of adjacent dies (global
	// die order), attached to the even die of the pair. On flat machines a
	// "die pair" is a socket pair, which models two sockets sharing one
	// controller.
	ScopePerDiePair
	// ScopeSingle provisions a single device for the whole machine, attached
	// to socket 0's first die.
	ScopeSingle
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopePerSocket:
		return "per-socket"
	case ScopePerDiePair:
		return "per-die-pair"
	case ScopeSingle:
		return "single"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Layout is a named storage shape: which class of log device the machine has
// and how many. Together with a topology it instantiates a Map.
type Layout struct {
	// Name is the identifier used by configuration and the experiment tables.
	Name string
	// Description says what storage configuration the layout models.
	Description string
	// Template is the device class every device of the layout instantiates;
	// Build fills in the per-device Name/Socket/Die.
	Template Spec
	// Scope is how many devices the layout provisions.
	Scope Scope
}

// Layouts returns the built-in log-device layouts, most parallel first.
func Layouts() []Layout {
	return []Layout{
		{
			Name:        "nvme-per-socket",
			Description: "one NVMe namespace per socket behind the socket's IO die",
			Template:    Spec{Class: "nvme", FlushLatency: 12000, PerByteCost: 0, QueueDepth: 4},
			Scope:       ScopePerSocket,
		},
		{
			Name:        "nvme-per-die-pair",
			Description: "one shared NVMe device per pair of dies (two islands contend for one flush path)",
			Template:    Spec{Class: "nvme-shared", FlushLatency: 16000, PerByteCost: 0, QueueDepth: 2},
			Scope:       ScopePerDiePair,
		},
		{
			Name:        "single-sata",
			Description: "a single SATA-class device behind one controller (consumer boards, every commit serializes)",
			Template:    Spec{Class: "sata", FlushLatency: 36000, PerByteCost: 1, QueueDepth: 1},
			Scope:       ScopeSingle,
		},
	}
}

// LayoutByName looks a layout up by its Name.
func LayoutByName(name string) (Layout, bool) {
	for _, l := range Layouts() {
		if l.Name == name {
			return l, true
		}
	}
	return Layout{}, false
}

// LayoutNames returns the names of the built-in layouts, sorted.
func LayoutNames() []string {
	out := make([]string, 0, len(Layouts()))
	for _, l := range Layouts() {
		out = append(out, l.Name)
	}
	sort.Strings(out)
	return out
}

// BuildLayout instantiates a named layout's device map on a machine, erroring
// with the known names on a miss so CLI flags produce a helpful message.
func BuildLayout(name string, top *topology.Topology) (*Map, error) {
	l, ok := LayoutByName(name)
	if !ok {
		return nil, fmt.Errorf("device: unknown log-device layout %q (known: %s)",
			name, strings.Join(LayoutNames(), ", "))
	}
	return l.Build(top), nil
}

// Map is a layout instantiated on one machine: the physical devices plus the
// die-to-device assignment the island wirings bind their logs through. The
// assignment is per die — the finest level at which a log can be homed — so
// an island at any level resolves its device through its home die. The Map is
// engine-lifetime: island wirings come and go with level changes, but the
// device a die flushes through never moves, which is what lets a re-wiring
// reuse device bindings the way it reuses island logs.
type Map struct {
	layout  string
	devices []*Device
	// byDie maps the global die index to the index of its device.
	byDie []int
}

// Build instantiates the layout's devices on the machine.
func (l Layout) Build(top *topology.Topology) *Map {
	m := &Map{layout: l.Name, byDie: make([]int, top.NumDies())}
	addDevice := func(die topology.DieID) int {
		spec := l.Template
		spec.Name = fmt.Sprintf("%s-%d", spec.Class, len(m.devices))
		spec.Die = die
		spec.Socket = top.SocketOfDie(die)
		m.devices = append(m.devices, New(spec))
		return len(m.devices) - 1
	}
	switch l.Scope {
	case ScopePerDiePair:
		for d := 0; d < top.NumDies(); d += 2 {
			idx := addDevice(topology.DieID(d))
			m.byDie[d] = idx
			if d+1 < top.NumDies() {
				m.byDie[d+1] = idx
			}
		}
	case ScopeSingle:
		idx := addDevice(top.FirstDieOn(0))
		for d := range m.byDie {
			m.byDie[d] = idx
		}
	default: // ScopePerSocket
		for s := 0; s < top.Sockets(); s++ {
			idx := addDevice(top.FirstDieOn(topology.SocketID(s)))
			for d := 0; d < top.DiesPerSocket(); d++ {
				m.byDie[int(top.FirstDieOn(topology.SocketID(s)))+d] = idx
			}
		}
	}
	return m
}

// Layout returns the name of the layout the map was built from.
func (m *Map) Layout() string { return m.layout }

// NumDevices returns how many physical devices the map provisions.
func (m *Map) NumDevices() int { return len(m.devices) }

// Devices returns the map's devices. The slice must not be modified.
func (m *Map) Devices() []*Device { return m.devices }

// DeviceFor returns the device serving the given die. Unknown dies fall back
// to device 0, mirroring the out-of-range behaviour of the per-island logs.
func (m *Map) DeviceFor(die topology.DieID) *Device {
	if int(die) >= 0 && int(die) < len(m.byDie) {
		return m.devices[m.byDie[die]]
	}
	return m.devices[0]
}

// Device returns device i, or an error when the index is out of range.
func (m *Map) Device(i int) (*Device, error) {
	if i < 0 || i >= len(m.devices) {
		return nil, fmt.Errorf("device: layout %s has no device %d (have %d)", m.layout, i, len(m.devices))
	}
	return m.devices[i], nil
}

// FailDevice marks device i failed. It refuses to fail an already-failed
// device and to fail the last alive device of the map — the model needs at
// least one surviving flush path to re-home island logs onto, the same way
// the topology always keeps at least one socket alive.
func (m *Map) FailDevice(i int) error {
	d, err := m.Device(i)
	if err != nil {
		return err
	}
	if d.Failed() {
		return fmt.Errorf("device: device %d (%s) is already failed", i, d.spec.Name)
	}
	alive := 0
	for _, x := range m.devices {
		if !x.Failed() {
			alive++
		}
	}
	if alive <= 1 {
		return fmt.Errorf("device: cannot fail device %d (%s): it is the last alive device of layout %s", i, d.spec.Name, m.layout)
	}
	d.Fail()
	return nil
}

// DegradeDevice sets device i's latency factor. Factors below one are
// rejected rather than clamped so a schedule typo surfaces as an error.
func (m *Map) DegradeDevice(i int, factor float64) error {
	d, err := m.Device(i)
	if err != nil {
		return err
	}
	if factor < 1 {
		return fmt.Errorf("device: degrade factor %v for device %d must be >= 1", factor, i)
	}
	d.Degrade(factor)
	return nil
}

// AliveDeviceFor returns the device serving the given die, re-homed to the
// lowest-index alive device when the die's own device has failed, or nil when
// every device of the map has failed. The lowest-index rule keeps re-homing
// deterministic; devices are laid out in die order, so low indices are also
// topologically close.
func (m *Map) AliveDeviceFor(die topology.DieID) *Device {
	d := m.DeviceFor(die)
	if !d.Failed() {
		return d
	}
	for _, cand := range m.devices {
		if !cand.Failed() {
			return cand
		}
	}
	return nil
}

// ResetFaults restores every device to healthy full speed. Fault state
// deliberately survives Reset — it models hardware condition, not run state,
// exactly like topology socket liveness — so tests and the fuzzer clear it
// explicitly.
func (m *Map) ResetFaults() {
	for _, d := range m.devices {
		d.Restore()
		d.Degrade(1)
	}
}

// Reset clears the queue state of every device (between runs).
func (m *Map) Reset() {
	for _, d := range m.devices {
		d.Reset()
	}
}

// Stats sums the per-device counters.
func (m *Map) Stats() Stats {
	var out Stats
	for _, d := range m.devices {
		st := d.Stats()
		out.Flushes += st.Flushes
		out.Queued += st.Queued
		out.QueueWait += st.QueueWait
	}
	return out
}
