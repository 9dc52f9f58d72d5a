package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBeyond is how many samples the reported tail percentile must leave
// beyond it: below that the "tail" is a handful of outliers, not a percentile.
const tailBeyond = 10

// tailPercentile is the choosing-metrics rule: the highest of the customary
// percentiles that still has at least tailBeyond samples beyond it. It returns
// 0 when even p75 does not (fewer than 40 samples): then there is no tail to
// report, only a median.
func tailPercentile(n int) int {
	// In permille and integers: 100 samples have exactly 10 beyond p90, which
	// floating point makes 9.999.
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= tailBeyond*1000 {
			if permille == 999 {
				return 999
			}
			return permille / 10
		}
	}
	return 0
}

// tailValue returns the tailPercentile of xs and which percentile that was;
// with too few samples it falls back to the maximum and reports percentile 0.
func tailValue(xs []float64) (value float64, pct int) {
	pct = tailPercentile(len(xs))
	switch pct {
	case 0:
		return quantile(xs, 1), 0
	case 999:
		return quantile(xs, 0.999), pct
	default:
		return quantile(xs, float64(pct)/100), pct
	}
}

// iqrShare is the distance between the first and third quartile as a share of
// the median: the spread statistic the regression bounds are sized against.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
