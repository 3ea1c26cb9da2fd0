package memsim

import (
	"fmt"
	"strconv"
	"strings"

	"twist/internal/obs"
)

// The unified construction path. Earlier revisions grew four entry points —
// NewHierarchy, MustNewHierarchy, Default, and NewStream(h, batch) — with
// the parallel simulator about to add more. New(Config) replaces them: one
// config, one constructor, one Simulator interface, so every consumer
// (experiments, workloads, serve, nestbench) is written against the
// interface and sizes the simulation with a single field. New always builds
// the set-partitioned ShardedHierarchy; the sequential Hierarchy is the walk
// each of its shards runs.

// Config describes a simulator: the cache levels (closest first) and how to
// run them.
type Config struct {
	// Levels are the cache levels, L1 first. Required.
	Levels []CacheConfig

	// SimWorkers is the number of set-partitioned shard workers, clamped
	// to the set count of the smallest level (see NewSharded); <= 1 means
	// one. A single shard walks the whole trace in order on its own
	// goroutine, pipelined behind the producer; more shards split the walk
	// by cache set. Every shard count produces Stats bit-identical to the
	// inline sequential walk (DESIGN.md §4.8).
	SimWorkers int

	// Batch is the shard dispatch granularity in addresses; <= 0 means
	// DefaultBatch.
	Batch int
}

// Simulator is the trace-driven cache simulation behind every miss-rate
// figure: feed it line-aligned addresses, read per-level statistics.
// ShardedHierarchy, which New builds, runs it on shard worker goroutines;
// Hierarchy runs it inline on the caller's goroutine. Both produce
// bit-identical Stats. The producer side (Access/AccessBatch and the
// inspection methods) must be confined to one goroutine at a time — Stream
// serializes concurrent trace producers on top of either.
type Simulator interface {
	// Access simulates one load of the byte at a.
	Access(a Addr)
	// AccessBatch simulates the loads of as in order.
	AccessBatch(as []Addr)
	// Stats returns the per-level statistics, L1 first, complete with
	// respect to every access already submitted.
	Stats() []LevelStats
	// Reset clears contents and statistics, keeping the geometry.
	Reset()
	// ResetStats clears the counters but keeps cache contents (the
	// warmup/measure protocol).
	ResetStats()
	// Publish emits the simulator's counters into r under prefix
	// (per-level merged counts; the parallel engine adds per-shard views).
	Publish(r obs.Recorder, prefix string)
	// Close releases any background resources (shard workers). Hierarchy's
	// Close is a no-op; Stats remain readable after.
	Close()
}

// New builds the simulator described by cfg: a *ShardedHierarchy with
// max(cfg.SimWorkers, 1) shards. Even one shard runs its LRU walk on a
// worker goroutine, so the caller's trace production and the simulation
// overlap on two cores. The caller owns the Close that stops the workers.
func New(cfg Config) (Simulator, error) {
	return NewSharded(cfg.Levels, max(cfg.SimWorkers, 1), cfg.Batch)
}

// MustNew is New that panics on error, for geometries known valid at
// compile time.
func MustNew(cfg Config) Simulator {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// PaperLevels returns the paper's Xeon hierarchy (§6): 32K/8-way L1,
// 256K/8-way L2, 20M/20-way LLC (the Xeon E5's 20 MiB LLC is 20-way, which
// is also what keeps the set count a power of two), 64-byte lines — the
// geometry spelled "32K/64:8,256K/64:8,20M/64:20" in ParseGeometry form.
func PaperLevels() []CacheConfig {
	return []CacheConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		{Name: "L3", SizeBytes: 20 << 20, LineBytes: 64, Ways: 20},
	}
}

// ParseGeometry parses a compact hierarchy description into level configs
// named L1..Ln, closest level first. The grammar is comma-separated levels,
// each SIZE/LINE:WAYS, with sizes taking optional binary suffixes K, M, or
// G — "32K/64:8,256K/64:8,20M/64:16" is the paper's machine. The configs
// are validated as a hierarchy (power-of-two geometry, uniform line size).
func ParseGeometry(s string) ([]CacheConfig, error) {
	parts := strings.Split(s, ",")
	cfgs := make([]CacheConfig, 0, len(parts))
	for k, part := range parts {
		part = strings.TrimSpace(part)
		sizeLine, ways, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("memsim: geometry level %q: want SIZE/LINE:WAYS", part)
		}
		size, line, ok := strings.Cut(sizeLine, "/")
		if !ok {
			return nil, fmt.Errorf("memsim: geometry level %q: want SIZE/LINE:WAYS", part)
		}
		sz, err := parseSize(size)
		if err != nil {
			return nil, fmt.Errorf("memsim: geometry level %q: size: %v", part, err)
		}
		ln, err := parseSize(line)
		if err != nil {
			return nil, fmt.Errorf("memsim: geometry level %q: line: %v", part, err)
		}
		w, err := strconv.Atoi(strings.TrimSpace(ways))
		if err != nil {
			return nil, fmt.Errorf("memsim: geometry level %q: ways: %v", part, err)
		}
		cfgs = append(cfgs, CacheConfig{
			Name:      fmt.Sprintf("L%d", k+1),
			SizeBytes: sz,
			LineBytes: ln,
			Ways:      w,
		})
	}
	// Borrow the hierarchy constructor's validation so a parsed geometry is
	// always buildable.
	if _, err := NewHierarchy(cfgs...); err != nil {
		return nil, err
	}
	return cfgs, nil
}

// FormatGeometry renders levels in ParseGeometry's grammar, using the
// largest binary suffix that divides each size. It round-trips with
// ParseGeometry; nestbench records it in the BENCH report params so a
// baseline pins the simulated geometry.
func FormatGeometry(cfgs []CacheConfig) string {
	var b strings.Builder
	for k, c := range cfgs {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s/%s:%d", formatSize(c.SizeBytes), formatSize(c.LineBytes), c.Ways)
	}
	return b.String()
}

// parseSize reads a positive byte count with an optional binary K/M/G
// suffix.
func parseSize(s string) (int, error) {
	s = strings.TrimSpace(s)
	mult := 1
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'K', 'k':
			mult, s = 1<<10, s[:n-1]
		case 'M', 'm':
			mult, s = 1<<20, s[:n-1]
		case 'G', 'g':
			mult, s = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("size %d not positive", v*mult)
	}
	return v * mult, nil
}

// formatSize renders a byte count with the largest binary suffix that
// divides it exactly.
func formatSize(v int) string {
	switch {
	case v >= 1<<30 && v%(1<<30) == 0:
		return strconv.Itoa(v>>30) + "G"
	case v >= 1<<20 && v%(1<<20) == 0:
		return strconv.Itoa(v>>20) + "M"
	case v >= 1<<10 && v%(1<<10) == 0:
		return strconv.Itoa(v>>10) + "K"
	}
	return strconv.Itoa(v)
}
