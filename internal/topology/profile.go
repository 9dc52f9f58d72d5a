package topology

import (
	"fmt"
	"sort"
	"strings"
)

// Profile is a named machine shape: a reusable Config for a class of real
// servers. The paper's motivation is that the right deployment granularity
// depends on the shape of the hardware islands, which varies by machine;
// the profile library provides the shapes the experiments sweep over.
type Profile struct {
	// Name is the identifier used by the -profile flag and the experiment tables.
	Name string
	// Description says what machine class the profile models.
	Description string
	// Config is the topology configuration; Build instantiates it.
	Config Config
}

// Build instantiates the profile's topology.
func (p Profile) Build() *Topology { return MustNew(p.Config) }

// Profiles returns the built-in machine profiles, smallest first.
func Profiles() []Profile {
	ps := []Profile{
		{
			Name:        "2s-fc",
			Description: "2-socket fully-connected box, 8 cores per socket (commodity dual-socket server)",
			Config:      Config{Name: "2-socket fully-connected", Sockets: 2, CoresPerSocket: 8},
		},
		{
			Name:        "4s-fc",
			Description: "4-socket fully-connected box, 8 cores per socket (QPI point-to-point, 1 hop everywhere)",
			Config:      Config{Name: "4-socket fully-connected", Sockets: 4, CoresPerSocket: 8},
		},
		{
			Name:        "chiplet-2s4d",
			Description: "chiplet CPU: 2 sockets x 4 CCXs x 4 cores, cheap on-package die hops, expensive 2-hop inter-socket links",
			Config: Config{
				Name:           "2-socket chiplet (4 CCXs x 4 cores)",
				Sockets:        2,
				CoresPerSocket: 16,
				DiesPerSocket:  4,
				// Crossing packages traverses both IO dies: twice the cost of
				// a direct point-to-point socket link.
				Distance: [][]int{{0, 2}, {2, 0}},
			},
		},
		{
			Name:        "subnuma-4s2d",
			Description: "sub-NUMA clustering: 4 sockets x 2 clusters x 5 cores (SNC-2 on a 4-socket box)",
			Config: Config{
				Name:           "4-socket sub-NUMA (2 clusters x 5 cores)",
				Sockets:        4,
				CoresPerSocket: 10,
				DiesPerSocket:  2,
			},
		},
		{
			Name:        "paper-8s",
			Description: "the paper's platform: 8 sockets x 10 cores, twisted-cube QPI interconnect",
			Config:      Config{Name: "8-socket x 10-core twisted cube", Sockets: 8, CoresPerSocket: 10},
		},
		{
			Name:        "consumer-1s4d",
			Description: "1-socket many-die consumer part: 4 CCDs x 4 cores behind one IO die (desktop chiplet CPU)",
			Config: Config{
				Name:           "1-socket consumer chiplet (4 CCDs x 4 cores)",
				Sockets:        1,
				CoresPerSocket: 16,
				DiesPerSocket:  4,
			},
		},
	}
	return ps
}

// ProfileByName looks a profile up by its Name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames returns the names of the built-in profiles, sorted.
func ProfileNames() []string {
	out := make([]string, 0, len(Profiles()))
	for _, p := range Profiles() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// BuildProfile instantiates a named profile, erroring with the known names on
// a miss so CLI flags produce a helpful message.
func BuildProfile(name string) (*Topology, error) {
	p, ok := ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("topology: unknown machine profile %q (known: %s)",
			name, strings.Join(ProfileNames(), ", "))
	}
	return p.Build(), nil
}
