package memsim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// checkReuse replays trace through a fresh analyzer, compares every distance
// with naiveReuse, and checks the analyzer's internal invariants at the end.
func checkReuse(t *testing.T, trace []Addr) {
	t.Helper()
	want := naiveReuse(trace)
	r := NewReuseAnalyzer()
	for k, a := range trace {
		if got := r.Access(a); got != want[k] {
			t.Fatalf("access %d (addr %#x): got %d, want %d", k, a, got, want[k])
		}
	}
	checkInvariants(t, r)
}

// checkInvariants verifies the analyzer's state: one mark per distinct
// address, at its last access time and owned by it, a Fenwick tree that
// matches the marks' popcounts, and a window no wider than
// max(256, 4·Distinct) rounded up to whole words.
func checkInvariants(t *testing.T, r *ReuseAnalyzer) {
	t.Helper()
	d := r.Distinct()
	marked := 0
	for w, m := range r.marks {
		marked += bits.OnesCount64(m)
		if got := r.marksThrough(w<<6 | 63); got != marked {
			t.Fatalf("marks through word %d: tree says %d, bitset %d", w, got, marked)
		}
	}
	if marked != d {
		t.Fatalf("%d marks for %d distinct addresses", marked, d)
	}
	for id, t0 := range r.last {
		if t0 >= r.now || r.marks[t0>>6]&(1<<(t0&63)) == 0 || r.owner[t0] != id {
			t.Fatalf("id %d: last access %d is not its mark (now %d)", id, t0, r.now)
		}
	}
	if limit := max(minWindow, (4*d+63)&^63); len(r.owner) > limit {
		t.Fatalf("window %d slots exceeds max(256, 4·%d)", len(r.owner), d)
	}
}

// TestReuseAnalyzerDifferential pins the compacted analyzer to the O(n²)
// reference on traces shaped to reach its corner cases.
func TestReuseAnalyzerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	trace := func(n int, addr func(k int) Addr) []Addr {
		out := make([]Addr, n)
		for k := range out {
			out[k] = addr(k)
		}
		return out
	}
	cases := []struct {
		name  string
		trace []Addr
	}{
		// Ten addresses in a 256-slot window: a compaction every ~246
		// accesses, about 24 in all.
		{"many compactions", trace(6000, func(int) Addr { return Addr(rng.Intn(10)) })},
		// The alphabet grows with the trace, so the address table rehashes
		// and the window widens mid-trace, between compactions.
		{"rising distinct", trace(4000, func(k int) Addr { return Addr(rng.Intn(k/8 + 1)) })},
		// Cyclic sweeps: every distance is Distinct−1, the largest possible.
		{"cyclic", trace(3000, func(k int) Addr { return Addr(k % 300) })},
		// Extreme addresses, and strided ones that share low hash bits.
		{"extreme addresses", trace(3000, func(int) Addr {
			switch x := rng.Intn(8); x {
			case 0:
				return 0
			case 1:
				return 1 << 63
			case 2:
				return ^Addr(0)
			case 3:
				return 1
			default:
				return Addr(rng.Intn(40)) << (8 * x)
			}
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkReuse(t, c.trace) })
	}
}

// FuzzReuseAnalyzer: any trace gets the reference distances. The input is
// replayed cyclically up to 1024 accesses (longer inputs are cut at 2048),
// so short inputs still cross several window compactions. Bytes 0–3 stand
// for the addresses 0, 1, 1<<63 and ^0; odd bytes are shifted into the high
// bits.
func FuzzReuseAnalyzer(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte("abcabcabd"))
	f.Add([]byte{4, 5, 7, 9, 200, 201, 255, 4, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		special := [...]Addr{0, 1, 1 << 63, ^Addr(0)}
		trace := make([]Addr, min(max(len(data), 1024), 2048))
		for k := range trace {
			b := data[k%len(data)]
			switch {
			case b < 4:
				trace[k] = special[b]
			case b&1 == 1:
				trace[k] = Addr(b) << 55
			default:
				trace[k] = Addr(b)
			}
		}
		checkReuse(t, trace)
	})
}

// TestReuseAnalyzerAllocs: once warm over a fixed address set — the table
// sized, the window at its width, the histogram at its longest distance —
// Access and Histogram.Add allocate nothing, across compactions too.
// Serial, since AllocsPerRun counts the whole process's allocations.
func TestReuseAnalyzerAllocs(t *testing.T) {
	const distinct = 1000
	rng := rand.New(rand.NewSource(3))
	addrs := make([]Addr, distinct)
	for k := range addrs {
		addrs[k] = Addr(rng.Uint64())
	}
	trace := make([]Addr, 10000) // crosses at least two compactions
	for k := range trace {
		trace[k] = addrs[rng.Intn(distinct)]
	}
	r, h := NewReuseAnalyzer(), NewHistogram()
	for pass := 0; pass < 2; pass++ { // the second sweep reaches distance distinct−1
		for _, a := range addrs {
			h.Add(r.Access(a))
		}
	}
	run := func() {
		for _, a := range trace {
			h.Add(r.Access(a))
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("%v allocations per %d warm accesses, want 0", allocs, len(trace))
	}
}

// TestReuseAnalyzerMemoryBoundedByDistinct: a long trace over few addresses
// leaves every internal slice O(Distinct), not O(trace length).
func TestReuseAnalyzerMemoryBoundedByDistinct(t *testing.T) {
	const distinct, accesses, c = 1000, 1 << 20, 8
	rng := rand.New(rand.NewSource(5))
	r, h := NewReuseAnalyzer(), NewHistogram()
	for k := 0; k < accesses; k++ {
		h.Add(r.Access(Addr(rng.Intn(distinct)) * 64))
	}
	d := r.Distinct()
	if d != distinct {
		t.Fatalf("Distinct = %d, want %d", d, distinct)
	}
	for name, n := range map[string]int{
		"table":            cap(r.table),
		"last":             cap(r.last),
		"owner":            cap(r.owner),
		"marks (bits)":     64 * cap(r.marks),
		"tree":             cap(r.tree),
		"histogram counts": cap(h.counts),
	} {
		if n > c*d {
			t.Errorf("%s holds %d entries after %d accesses, more than %d·Distinct = %d", name, n, accesses, c, c*d)
		}
	}
	checkInvariants(t, r)
}
