package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		// Expected values from Python's statistics.median and
		// statistics.quantiles(xs, n=4).
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{seq(10), 5.5, 2.75, 8.25},
		{[]float64{7, 7}, 7, 7, 7},
		{[]float64{1, 9}, 5, -1, 11}, // the exclusive method extrapolates
	} {
		if got := median(tc.xs); got != tc.median {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.median)
		}
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{20, 50, 10}, // 10 samples above the 10th
		{48, 75, 36},
		{96, 75, 72},    // p90 would leave only 9 beyond
		{100, 90, 90},   // exactly 10 beyond the p90
		{120, 90, 108},  // cold-run's five rounds
		{960, 90, 864},  // cold-run's forty rounds, still the p90
		{999, 90, 900},  // one short of a p99
		{1000, 99, 990}, // exactly 10 beyond the p99
		{20000, 99.9, 19980},
	} {
		xs := seq(tc.n)
		pct, v, ok := tail(xs)
		if !ok || pct != tc.pct || v != tc.value {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v", tc.n, pct, v, ok, tc.pct, tc.value)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("tail(1..%d): only %d samples beyond p%v", tc.n, beyond, pct)
		}
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples should not exist: nothing can have 10 beyond it")
	}
}

func TestShapeMeanWeightsShapesAlike(t *testing.T) {
	groups := map[string][]float64{
		"cheap":  {1, 2, 3, 100}, // median 2.5; the outlier does not count
		"costly": {40},
	}
	if got, want := shapeMean(groups), 10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("shapeMean = %v, want %v", got, want)
	}
	// Ten times as many cheap samples leave the mean where it was, where
	// the pooled median would move to the cheap shape.
	for i := 0; i < 9; i++ {
		groups["cheap"] = append(groups["cheap"], 2.5)
	}
	if got := shapeMean(groups); math.Abs(got-10) > 1e-9 {
		t.Errorf("shapeMean after more cheap samples = %v, want 10", got)
	}
	if !math.IsNaN(shapeMean(nil)) {
		t.Error("shapeMean of no groups should be NaN")
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []*span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // runs past the root
		{ID: 5, Parent: 2, Name: "a.1", Start: at(15), End: at(25)},
		{ID: 6, Parent: 5, Name: "a.1.1", Start: at(16), End: at(18)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // a∪b covers 10..60, c covers 90..100 inside the root
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10 - 2,
		6: 2,
	}
	for id, w := range want {
		if got := self[id]; got != w*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %v", id, got, w*time.Millisecond)
		}
	}
}

func TestTracerNestsAndNumbersSpans(t *testing.T) {
	var tr tracer
	root := tr.begin("job")
	child := tr.child(root, "layer", func() { time.Sleep(time.Millisecond) })
	tr.close(root)
	next := tr.begin("job")
	tr.close(next)
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Errorf("child %+v not nested under root %+v", child, root)
	}
	if next.Trace == root.Trace {
		t.Error("two traced requests share a trace id")
	}
	if self := selfTimes(tr.spans); self[root.ID] > root.dur()-child.dur() {
		t.Errorf("root self time %v exceeds its duration minus its child's", self[root.ID])
	}
}
