package core

import (
	"math"
	"testing"
)

func TestSpearman(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"perfect", []float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{"inverse", []float64{1, 2, 3, 4}, []float64{40, 30, 20, 10}, -1},
		{"monotone nonlinear", []float64{1, 2, 3, 4}, []float64{1, 100, 101, 1e6}, 1},
		{"constant", []float64{1, 2, 3}, []float64{5, 5, 5}, 0},
		{"short", []float64{1}, []float64{2}, 0},
		{"mismatch", []float64{1, 2}, []float64{1}, 0},
	}
	for _, c := range cases {
		if got := Spearman(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Spearman = %v, want %v", c.name, got, c.want)
		}
	}
	// Ties get average ranks: a has a tie, b orders them oppositely within
	// the tie — correlation stays high but below 1.
	got := Spearman([]float64{1, 2, 2, 4}, []float64{1, 3, 2, 4})
	if !(got > 0.7 && got < 1) {
		t.Errorf("tied Spearman = %v, want in (0.7, 1)", got)
	}
}
