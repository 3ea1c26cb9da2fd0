package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func testCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	corpus, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func mixJobs(t *testing.T, seed int64, n int) []job {
	t.Helper()
	g, err := newMixGen(seed, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]job, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// specSeeds collects the seed field of every run, misscurve and oracle spec.
func specSeeds(t *testing.T, jobs []job) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for _, j := range jobs {
		var s struct {
			Seed *int64 `json:"seed"`
		}
		if err := json.Unmarshal(j.Body, &s); err != nil {
			t.Fatal(err)
		}
		if s.Seed != nil {
			out[*s.Seed] = true
		}
	}
	return out
}

func TestMixIsAFunctionOfTheSeed(t *testing.T) {
	a, b := mixJobs(t, 7, 500), mixJobs(t, 7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request lists")
	}
	c := mixJobs(t, 8, 500)
	sa, sc := specSeeds(t, a), specSeeds(t, c)
	for s := range sc {
		if sa[s] {
			t.Errorf("spec seed %d drawn under both run seeds", s)
		}
	}
	if len(sc) == 0 {
		t.Fatal("no spec seeds drawn")
	}
}

func TestColdRoundsAreDistinctAndSeeded(t *testing.T) {
	r0, r1 := coldRound(canonicalSeed, 0), coldRound(canonicalSeed, 1)
	if len(r0) != 24 {
		t.Fatalf("a round has %d specs, want 6 workloads x 2 schedules x 2 worker counts", len(r0))
	}
	seen := map[string]bool{}
	for _, j := range append(r0, r1...) {
		if seen[string(j.Body)] {
			t.Errorf("spec repeated across cold-run rounds: %s", j.Body)
		}
		seen[string(j.Body)] = true
	}
	for _, j := range r0 {
		if j.Ref == "" {
			t.Errorf("canonical round-0 spec %s has no reference key", j.Body)
		}
	}
	for _, j := range r1 {
		if j.Ref != "" {
			t.Errorf("round-1 spec %s checked against a canonical-seed reference", j.Body)
		}
	}
	if !reflect.DeepEqual(coldRound(3, 0), coldRound(3, 0)) {
		t.Error("the same seed gave two different rounds")
	}
	if reflect.DeepEqual(specSeeds(t, coldRound(3, 0)), specSeeds(t, coldRound(4, 0))) {
		t.Error("a new seed gave the same spec seeds")
	}
}

func TestMixSharesHold(t *testing.T) {
	const n = 20000
	jobs := mixJobs(t, 11, n)
	count := map[string]int{}
	repeats := 0
	for _, j := range jobs {
		count[j.Kind]++
		if j.Repeat {
			repeats++
		}
	}
	for kind, want := range map[string]float64{"run": 0.40, "misscurve": 0.25, "transform": 0.20, "oracle": 0.15} {
		if got := float64(count[kind]) / n; math.Abs(got-want) > 0.001 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	if got := float64(repeats) / n; got < 0.45 || got > 0.6 {
		t.Errorf("repeat share %.3f, want about half", got)
	}
}

func TestMissCurvesMirrorEarlierRuns(t *testing.T) {
	runs := map[string]bool{}
	for _, j := range mixJobs(t, 5, 2000) {
		switch j.Kind {
		case "run":
			runs[j.Match] = true
		case "misscurve":
			if !runs[j.Match] {
				t.Fatalf("misscurve %s has no earlier run twin", j.Match)
			}
		}
	}
}
