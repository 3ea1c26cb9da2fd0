package experiments

import (
	"testing"

	"twist/internal/nest"
	"twist/internal/workloads"
)

// Fig 5 shape: the original schedule is bimodal — about half of all accesses
// (the outer tree's) have tiny reuse distances, and the other half (the
// inner tree's) have distances on the order of the tree size. Twisting must
// strictly dominate at mid-range distances.
func TestFig5Shape(t *testing.T) {
	const n = 256
	rows := Fig5(n, 1)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	byR := map[int]Fig5Row{}
	for _, r := range rows {
		byR[r.R] = r
	}
	// At r=4 the original already has its "hot half": CDF close to 0.5 and
	// far from 1 until r reaches the tree size.
	small := byR[4]
	if small.Original < 0.4 || small.Original > 0.6 {
		t.Fatalf("original CDF(4) = %v, want ~0.5 (hot/cold split)", small.Original)
	}
	mid := byR[64]
	if mid.Original > 0.6 {
		t.Fatalf("original CDF(64) = %v; cold half should still be cold", mid.Original)
	}
	if mid.Twisted <= mid.Original+0.1 {
		t.Fatalf("twisted CDF(64) = %v not clearly above original %v", mid.Twisted, mid.Original)
	}
	// Everything is below the total space bound eventually.
	last := rows[len(rows)-1]
	if last.Original < 0.95 || last.Twisted < 0.95 {
		t.Fatalf("CDF at max distance: orig %v, twisted %v", last.Original, last.Twisted)
	}
	// CDFs are nondecreasing in r.
	for k := 1; k < len(rows); k++ {
		if rows[k].Original < rows[k-1].Original || rows[k].Twisted < rows[k-1].Twisted {
			t.Fatalf("CDF not monotone at r=%d", rows[k].R)
		}
	}
}

func TestFig7RunsAndVerifies(t *testing.T) {
	rows, err := Fig7(256, 3, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Twisted <= 0 || r.Speedup <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		// simWorkers=2 turns the sim phase on: both engines ran, agreed
		// bit-identically (or Fig7 would have errored), and timed.
		if r.SimSeq <= 0 || r.SimPar <= 0 {
			t.Fatalf("sim phase skipped in %+v", r)
		}
	}
	if gm := GeoMean(rows); gm <= 0 {
		t.Fatalf("geomean %v", gm)
	}
}

func TestFig8aOverheadSigns(t *testing.T) {
	rows := Fig8a(512, 5)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaselineOps <= 0 || r.TwistedOps <= 0 {
			t.Fatalf("non-positive ops in %+v", r)
		}
		// Twisting adds bookkeeping; at these scales overhead must be >= 0
		// for the regular benchmarks (TJ, MM) and bounded overall.
		if r.Overhead < -0.5 || r.Overhead > 3 {
			t.Fatalf("implausible overhead %+v", r)
		}
	}
}

// The headline memory-system result: on TJ (pure pointer-chasing cross
// product) the baseline thrashes the simulated LLC while twisting nearly
// eliminates LLC misses (Fig 8b's 80+%% → <5%% drop). Probed directly at the
// smallest thrash-regime size to keep the test fast.
func TestFig8bTJL3Drop(t *testing.T) {
	in := workloads.TreeJoin(4096, 7) // 256 KiB per tree vs the 128 KiB simulated LLC
	base := missRates(in, nest.Original())
	tw := missRates(in, nest.Twisted())
	if base[2].MissRate() < 0.5 {
		t.Fatalf("TJ baseline L3 miss rate %v; input too small to thrash the simulated LLC", base[2].MissRate())
	}
	if tw[2].Misses > base[2].Misses/4 {
		t.Fatalf("TJ twisted L3 misses %d vs baseline %d: twisting should slash LLC misses",
			tw[2].Misses, base[2].Misses)
	}
}

// The dual-tree counterpart: NN's baseline inner traversals exceed the
// simulated LLC (bounds start loose), so the baseline thrashes while the
// twisted schedule's miss counts collapse.
func TestFig8bNNRegime(t *testing.T) {
	in := workloads.NearestNeighbor(8192, 7)
	base := missRates(in, nest.Original())
	tw := missRates(in, nest.Twisted())
	if base[2].MissRate() < 0.35 {
		t.Fatalf("NN baseline L3 miss rate %v; not in the paper's thrash regime", base[2].MissRate())
	}
	if tw[2].Misses > base[2].Misses/3 {
		t.Fatalf("NN twisted L3 misses %d vs baseline %d", tw[2].Misses, base[2].Misses)
	}
}

func TestFig9ShapeAcrossSizes(t *testing.T) {
	rows, err := Fig9([]int{256, 8192}, 0.4, 9, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	// The paper's Fig 9(b): the baseline has essentially no L3 misses at
	// small inputs (traversals fit higher levels) and suffers badly at
	// large ones.
	if small.BaseL3 > 0.2 {
		t.Fatalf("small-input baseline L3 miss rate %v; traversals should fit in cache", small.BaseL3)
	}
	if large.BaseL3 < small.BaseL3 {
		t.Fatalf("baseline L3 miss rate fell with size: %v -> %v", small.BaseL3, large.BaseL3)
	}
	if large.TwistL3 > large.BaseL3 {
		t.Fatalf("twisting worsened large-input L3: %v vs %v", large.TwistL3, large.BaseL3)
	}
}

func TestFig10CutoffRows(t *testing.T) {
	rows, err := Fig10(2048, 0.03, []int{16, 256}, 11, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Cutoff != -1 || rows[1].Cutoff != 16 || rows[2].Cutoff != 256 {
		t.Fatalf("rows = %+v", rows)
	}
	// Fig 10a: cutoff reduces instruction overhead below parameterless, and
	// larger cutoffs reduce it further.
	if !(rows[1].Overhead <= rows[0].Overhead && rows[2].Overhead <= rows[1].Overhead) {
		t.Fatalf("overhead not decreasing with cutoff: %+v", rows)
	}
}

func TestTblItersShape(t *testing.T) {
	rows := TblIters(4096, 0.03, 13)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(name string) ItersRow {
		for _, r := range rows {
			if r.Schedule == name {
				return r
			}
		}
		t.Fatalf("missing row %q", name)
		return ItersRow{}
	}
	orig := get("original")
	inter := get("interchange")
	tw := get("twisting")
	sub := get("twisting+subtree")
	if orig.Iterations != orig.Work {
		t.Fatal("original iterations != work")
	}
	if !(inter.Iterations > tw.Iterations && tw.Iterations >= sub.Iterations && sub.Iterations >= orig.Iterations) {
		t.Fatalf("§4.2 ordering violated: %+v", rows)
	}
	if inter.Work != orig.Work || tw.Work != orig.Work || sub.Work != orig.Work {
		t.Fatal("schedules performed different amounts of real work")
	}
}

func TestSimHierarchyLevels(t *testing.T) {
	sim := SimHierarchy()
	defer sim.Close()
	st := sim.Stats()
	if len(st) != 3 || st[0].Name != "L1" || st[1].Name != "L2" || st[2].Name != "L3" {
		t.Fatalf("levels = %+v", st)
	}
}
