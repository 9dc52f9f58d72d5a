package main

import "testing"

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{2, 3, 4}},
		{[]float64{40, 10, 20, 30}, [3]float64{17.5, 25, 32.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
