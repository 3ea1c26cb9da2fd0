package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at. A fixed,
// sparse ladder keeps the reported percentile the same across runs whose
// sample counts differ a little, so two runs' tails stay comparable: each
// workload's sample counts sit well inside one rung's range.
var tailLadder = []float64{50, 75, 90, 99, 99.9}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// quantile returns the q-th quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 quantile of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartiles of xs with the same
// exclusive method as Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// A transcription of CPython's exclusive method with 4 cuts,
		// including its clamp of j (which can extrapolate for small n).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest ladder percentile with at least minBeyond
// samples above it, its value, and false when xs is too small to have one.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := sortedCopy(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// rank is the 0-based index of the nearest-rank p-th percentile.
		rank := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
		if rank < 0 {
			rank = 0
		}
		if n-1-rank >= minBeyond {
			return p, s[rank], true
		}
	}
	return 0, math.NaN(), false
}

// shapeMean is the geometric mean, over the groups, of each group's median.
// A workload mixes request shapes whose costs differ by integer factors, so
// the median of the pooled samples sits between two shapes and jumps when
// a few samples cross; the mean of per-shape medians weights every shape
// alike and moves only when the shapes themselves do. NaN for no groups.
func shapeMean(groups map[string][]float64) float64 {
	if len(groups) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, xs := range groups {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(groups)))
}
