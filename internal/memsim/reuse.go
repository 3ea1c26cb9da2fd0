// Package memsim provides the trace-driven memory-hierarchy analysis that
// stands in for the paper's hardware measurements (DESIGN.md §1): an exact
// LRU stack/reuse-distance analyzer (for Fig 5) and a multi-level
// set-associative cache simulator (for Fig 8b and Fig 9b).
//
// Both consume abstract address traces. The schedules under study emit one
// address per tree-node access, produced by a Mapper from the arena node
// index, so the simulated behaviour is a pure function of the schedule — the
// quantity the paper's transformations change.
//
// # Streaming traces
//
// Long traces are fed through the Stream/Sink pipeline rather than
// materialized: each producer goroutine owns one Sink (a fixed ring buffer
// whose Emit is an array store — a Sink is NOT safe for concurrent use) and
// the Stream serializes full batches into its Hierarchy, so memory stays
// O(cache geometry + sinks·batch) regardless of trace length. The ordering
// contract is the foundation of the regression gate (DESIGN.md §4.7): with
// exactly one Sink the simulated access order is the emission order and the
// resulting LevelStats are bit-identical to calling Hierarchy.Access
// directly; with several Sinks batches interleave in completion order
// (merge mode), which simulates every access exactly once but is not
// deterministic. Call Stream.Close after all producers stop to flush
// partial batches; only then do the Hierarchy's Stats cover the full trace.
//
// Telemetry: Hierarchy.Publish and Stream.Publish export per-level
// hit/miss/eviction counters and pipeline counters into an obs.Recorder.
package memsim

import (
	"math/bits"
	"slices"
)

// Addr is an abstract memory address (byte-granular).
type Addr uint64

// Infinite is the reuse distance reported for the first access to an address
// (the paper's ∞ entries in §3.2).
const Infinite = -1

// ReuseAnalyzer computes exact LRU stack distances ("reuse distances",
// Mattson et al. [24]) online: for each access, the number of *distinct*
// other addresses touched since the previous access to the same address.
//
// The scheme is Bennett–Kruskal's: every address holds one mark, at the time
// of its latest access, and the stack distance of an access to an address
// last touched at time t0 is the number of marks after t0. Since every
// distinct address holds exactly one mark, that is Distinct minus the marks
// at or before t0, so one prefix count answers it.
//
// Time is compacted. The cursor runs over a window of max(256, 4·Distinct)
// slots; when it reaches the end, the live marks (at most Distinct) are
// renumbered onto 0, 1, 2, … in their order. A distance counts marks between
// two times and so depends only on their order, which renumbering keeps:
// every distance is the one an uncompacted clock would give. An access costs
// O(log D) amortized and the analyzer holds O(D) memory, D being the number
// of distinct addresses, however long the trace.
//
// The marks are a bitset with a Fenwick tree over its per-word popcounts.
// Addresses map to dense ids through a linear-probing table, so the
// per-address and per-time state are plain slices.
type ReuseAnalyzer struct {
	table []slot   // address → id; length a power of two, at most half full
	shift uint     // 64 − log2(len(table)), for the multiplicative hash
	last  []int    // last[id]: the time of id's latest access, where its mark is
	owner []int    // owner[t]: the id whose mark was set at time t; len is the window
	marks []uint64 // bit t set iff some address's latest access is at time t
	tree  []int    // Fenwick tree, 1-indexed, over the popcounts of marks' words
	now   int      // the time of the next access
}

// slot is one entry of the address table; id 0 marks it empty, so a
// stored id is the dense id plus one.
type slot struct {
	key Addr
	id  int
}

const (
	minWindow = 256 // smallest time window, in slots (a multiple of 64)
	minTable  = 64  // initial address table size (a power of two)
)

// NewReuseAnalyzer returns an analyzer with no history.
func NewReuseAnalyzer() *ReuseAnalyzer {
	r := &ReuseAnalyzer{}
	r.rehash(minTable)
	return r
}

// Access records an access to a and returns its reuse distance, or Infinite
// if a has never been accessed before.
func (r *ReuseAnalyzer) Access(a Addr) int {
	id, seen := r.lookup(a)
	if r.now == len(r.owner) {
		r.compact()
	}
	d := Infinite
	if seen {
		t0 := r.last[id]
		d = len(r.last) - r.marksThrough(t0)
		r.marks[t0>>6] &^= 1 << (t0 & 63)
		r.treeAdd(t0>>6, -1)
	}
	t := r.now
	r.now++
	r.owner[t] = id
	r.last[id] = t
	r.marks[t>>6] |= 1 << (t & 63)
	r.treeAdd(t>>6, 1)
	return d
}

// Distinct reports how many distinct addresses have been accessed so far.
func (r *ReuseAnalyzer) Distinct() int { return len(r.last) }

// lookup returns a's dense id and whether a was seen before, assigning the
// next id to a new address.
func (r *ReuseAnalyzer) lookup(a Addr) (int, bool) {
	mask := len(r.table) - 1
	for i := r.hash(a); ; i = (i + 1) & mask {
		s := &r.table[i]
		if s.id == 0 {
			id := len(r.last)
			s.key, s.id = a, id+1
			r.last = append(r.last, 0)
			if 2*len(r.last) > len(r.table) {
				r.rehash(2 * len(r.table))
			}
			return id, false
		}
		if s.key == a {
			return s.id - 1, true
		}
	}
}

// hash is Fibonacci hashing: the top bits of a times 2^64/φ.
func (r *ReuseAnalyzer) hash(a Addr) int {
	return int(uint64(a) * 0x9e3779b97f4a7c15 >> r.shift)
}

// rehash moves the address table into n slots.
func (r *ReuseAnalyzer) rehash(n int) {
	old := r.table
	r.table = make([]slot, n)
	r.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := r.hash(s.key)
		for r.table[i].id != 0 {
			i = (i + 1) & (n - 1)
		}
		r.table[i] = s
	}
}

// marksThrough counts the marks at times 0..t.
func (r *ReuseAnalyzer) marksThrough(t int) int {
	w := t >> 6
	n := bits.OnesCount64(r.marks[w] & (2<<(t&63) - 1))
	for i := w; i > 0; i -= i & -i {
		n += r.tree[i]
	}
	return n
}

// treeAdd adds v to the popcount of marks word w.
func (r *ReuseAnalyzer) treeAdd(w, v int) {
	for i := w + 1; i < len(r.tree); i += i & -i {
		r.tree[i] += v
	}
}

// compact renumbers the live marks onto 0..k−1 in time order, k being the
// number of marked addresses, and widens the window to max(256, 4·Distinct)
// slots if it is narrower.
func (r *ReuseAnalyzer) compact() {
	// In place: the k-th mark sits at a time t >= k, so owner[k] is written
	// only after owner[t] was read.
	k := 0
	for w, word := range r.marks {
		for ; word != 0; word &= word - 1 {
			id := r.owner[w<<6|bits.TrailingZeros64(word)]
			r.owner[k] = id
			r.last[id] = k
			k++
		}
	}
	r.now = k
	if n := max(minWindow, (4*len(r.last)+63)&^63); n > len(r.owner) {
		owner := make([]int, n)
		copy(owner, r.owner[:k])
		r.owner = owner
		r.marks = make([]uint64, n>>6)
		r.tree = make([]int, n>>6+1)
	}
	clear(r.marks)
	for w := 0; w < k>>6; w++ {
		r.marks[w] = ^uint64(0)
	}
	if k&63 != 0 {
		r.marks[k>>6] = 1<<(k&63) - 1
	}
	// Linear-time Fenwick build: each node passes its sum to its parent.
	clear(r.tree)
	for i := 1; i < len(r.tree); i++ {
		r.tree[i] += bits.OnesCount64(r.marks[i-1])
		if j := i + i&-i; j < len(r.tree) {
			r.tree[j] += r.tree[i]
		}
	}
}

// Histogram aggregates reuse distances into the CDF the paper plots in Fig 5:
// "percentage of accesses with reuse distance less than r".
type Histogram struct {
	counts   []int64 // counts[d]: accesses at finite distance d; len is Max+1
	total    int64
	infinite int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one reuse distance (Infinite for a cold access).
func (h *Histogram) Add(d int) {
	h.total++
	if d == Infinite {
		h.infinite++
		return
	}
	if d >= len(h.counts) {
		h.counts = slices.Grow(h.counts, d+1-len(h.counts))[:d+1]
	}
	h.counts[d]++
}

// Total returns the number of recorded accesses.
func (h *Histogram) Total() int64 { return h.total }

// InfiniteCount returns the number of cold (first-touch) accesses.
func (h *Histogram) InfiniteCount() int64 { return h.infinite }

// below sums the counts of the finite distances less than r.
func (h *Histogram) below(r int) int64 {
	var n int64
	for _, c := range h.counts[:min(max(r, 0), len(h.counts))] {
		n += c
	}
	return n
}

// CDF returns the fraction of all accesses whose reuse distance is strictly
// less than r. Cold accesses never count (their distance is infinite).
func (h *Histogram) CDF(r int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.below(r)) / float64(h.total)
}

// Series evaluates the CDF at each of rs and returns the fractions; rs is
// typically a log-spaced grid matching the paper's log-scale x axis.
func (h *Histogram) Series(rs []int) []float64 {
	out := make([]float64, len(rs))
	for k, r := range rs {
		out[k] = h.CDF(r)
	}
	return out
}

// Max returns the largest finite distance recorded (0 if none).
func (h *Histogram) Max() int { return max(len(h.counts)-1, 0) }

// Mean returns the mean finite reuse distance (0 if none recorded).
func (h *Histogram) Mean() float64 {
	var sum, n int64
	for d, c := range h.counts {
		sum += int64(d) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
