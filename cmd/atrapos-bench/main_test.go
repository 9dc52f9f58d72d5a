package main

import (
	"strings"
	"testing"

	"atrapos"
)

// TestParseScale: -scale and -profile are resolved once for every mode, and
// an unknown value of either is an error instead of a silent default.
func TestParseScale(t *testing.T) {
	cases := []struct {
		scale, profile string
		sockets        int // MaxSockets of the resolved scale; 0 = want an error
	}{
		{"quick", "", 4},
		{"paper", "", 8},
		{"quick", "chiplet-2s4d", 4},
		{"papr", "", 0},
		{"", "", 0},
		{"quick", "no-such-machine", 0},
	}
	for _, c := range cases {
		got, err := parseScale(c.scale, c.profile)
		if c.sockets == 0 {
			if err == nil {
				t.Errorf("parseScale(%q, %q) accepted an unknown value", c.scale, c.profile)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseScale(%q, %q): %v", c.scale, c.profile, err)
			continue
		}
		if got.MaxSockets != c.sockets || got.Profile != c.profile {
			t.Errorf("parseScale(%q, %q) = %d sockets on profile %q", c.scale, c.profile, got.MaxSockets, got.Profile)
		}
	}
}

// TestListPrintsDescriptions: -list names every experiment with what it shows.
func TestListPrintsDescriptions(t *testing.T) {
	var buf strings.Builder
	listExperiments(&buf)
	out := buf.String()
	for _, e := range atrapos.Experiments() {
		if !strings.Contains(out, e.ID) || !strings.Contains(out, e.Description) {
			t.Errorf("-list output lacks %s and its description %q", e.ID, e.Description)
		}
	}
}
