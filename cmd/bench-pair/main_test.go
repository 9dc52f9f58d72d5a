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

func TestCPUTicks(t *testing.T) {
	for _, c := range []struct {
		name, stat   string
		steal, total uint64
	}{
		{"guest columns", "cpu  14555 0 2152 110795 1801 0 39 26 5 0\ncpu0 7000 0 1000 55000 900 0 20 13 0 0\n", 26, 129368},
		{"no steal column", "cpu  14555 0 2152 110795 1801 0 39\n", 0, 0},
		{"not the cpu line", "intr 1 2 3 4 5 6 7 8 9\n", 0, 0},
		{"malformed", "cpu  1 2 3 x 5 6 7 8\n", 0, 0},
		{"empty", "", 0, 0},
	} {
		if steal, total := cpuTicks(c.stat); steal != c.steal || total != c.total {
			t.Errorf("%s: cpuTicks = %d, %d; want %d, %d", c.name, steal, total, c.steal, c.total)
		}
	}
	before := "cpu  100 0 100 700 0 0 0 100\n"
	after := "cpu  200 0 200 1300 0 0 0 300\n"
	if got := percent(stealShare(before, after)); got != "20.0%" {
		t.Errorf("steal share prints %q, want 20.0%% (200 of 1000 ticks)", got)
	}
	if got := percent(stealShare(before, "cpu  1 2 3\n")); got != "n/a" {
		t.Errorf("share without a steal column prints %q, want n/a", got)
	}
	if got := percent(stealShare(after, before)); got != "n/a" {
		t.Errorf("share over no ticks prints %q, want n/a", got)
	}
}
