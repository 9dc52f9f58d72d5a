package vclock

import (
	"slices"
	"testing"
	"time"
)

func TestComponentString(t *testing.T) {
	for _, comp := range Components() {
		if comp.String() == "" {
			t.Errorf("component %d has empty string", comp)
		}
	}
	if Component(99).String() == "" {
		t.Error("unknown component should still produce a string")
	}
	if len(Components()) != 5 {
		t.Errorf("Components() returned %d entries, want 5", len(Components()))
	}
}

func TestNanosConversions(t *testing.T) {
	n := Nanos(1_500_000_000)
	if n.Seconds() != 1.5 {
		t.Errorf("Seconds = %f, want 1.5", n.Seconds())
	}
	if n.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v", n.Duration())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(Nanos(time.Second))
	if s.Window() != Nanos(time.Second) {
		t.Fatalf("window = %d", s.Window())
	}
	if got := s.Samples(); got != nil {
		t.Fatalf("empty series samples = %v, want nil", got)
	}
	// 10 commits in second 0, none in second 1, 20 in second 2.
	s.Record(Nanos(200*time.Millisecond), 10)
	s.Record(Nanos(2500*time.Millisecond), 20)
	s.Record(Nanos(2600*time.Millisecond), 0) // ignored
	samples := s.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (including the empty window)", len(samples))
	}
	if samples[0].Throughput != 10 {
		t.Errorf("window 0 throughput = %f, want 10", samples[0].Throughput)
	}
	if samples[1].Throughput != 0 {
		t.Errorf("window 1 throughput = %f, want 0", samples[1].Throughput)
	}
	if samples[2].Throughput != 20 {
		t.Errorf("window 2 throughput = %f, want 20", samples[2].Throughput)
	}
	if samples[0].At != Nanos(time.Second) {
		t.Errorf("window 0 ends at %d", samples[0].At)
	}

	// A first commit in a late window starts the series there; a gap in the
	// middle reads as zero-throughput windows; a commit before the first
	// populated window moves the start back.
	late := NewSeries(Nanos(time.Second))
	late.Record(Nanos(7200*time.Millisecond), 3)
	late.Record(Nanos(10100*time.Millisecond), 4)
	late.Record(Nanos(7900*time.Millisecond), 1)
	want := []Sample{{At: Nanos(8 * time.Second), Throughput: 4}, {At: Nanos(9 * time.Second)}, {At: Nanos(10 * time.Second)}, {At: Nanos(11 * time.Second), Throughput: 4}}
	if got := late.Samples(); !slices.Equal(got, want) {
		t.Errorf("late-start series = %v, want %v", got, want)
	}
	late.Record(Nanos(5500*time.Millisecond), 2)
	want = append([]Sample{{At: Nanos(6 * time.Second), Throughput: 2}, {At: Nanos(7 * time.Second)}}, want...)
	if got := late.Samples(); !slices.Equal(got, want) {
		t.Errorf("series after an earlier commit = %v, want %v", got, want)
	}
}

func TestSeriesDefaultWindow(t *testing.T) {
	s := NewSeries(0)
	if s.Window() != Nanos(time.Second) {
		t.Errorf("default window = %v, want 1s", s.Window())
	}
}
