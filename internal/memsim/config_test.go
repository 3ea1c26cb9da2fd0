package memsim

import "testing"

// TestNewSelectsEngine pins New's contract: every simulator is the
// set-partitioned engine, with one shard (a pipelined sequential walk) for
// SimWorkers 0 or 1 and the requested shard count above that.
func TestNewSelectsEngine(t *testing.T) {
	for workers, want := range map[int]int{0: 1, 1: 1, 4: 4} {
		sim := MustNew(Config{Levels: DefaultLevels(), SimWorkers: workers})
		sh, ok := sim.(*ShardedHierarchy)
		if !ok {
			t.Fatalf("SimWorkers=%d built %T, want *ShardedHierarchy", workers, sim)
		}
		if sh.Shards() != want {
			t.Fatalf("SimWorkers=%d: Shards() = %d, want %d", workers, sh.Shards(), want)
		}
		sim.Close()
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Levels: DefaultLevels()[:1], SimWorkers: 2}); err != nil {
		t.Fatalf("single-level sharded config rejected: %v", err)
	}
}

func TestParseGeometryPaper(t *testing.T) {
	cfgs, err := ParseGeometry("32K/64:8,256K/64:8,20M/64:20")
	if err != nil {
		t.Fatal(err)
	}
	want := PaperLevels()
	if len(cfgs) != len(want) {
		t.Fatalf("parsed %d levels, want %d", len(cfgs), len(want))
	}
	for k := range want {
		if cfgs[k] != want[k] {
			t.Fatalf("level %d = %+v, want %+v", k, cfgs[k], want[k])
		}
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	for _, levels := range [][]CacheConfig{PaperLevels(), DefaultLevels(), threeLevels()} {
		s := FormatGeometry(levels)
		back, err := ParseGeometry(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := FormatGeometry(back); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		for k := range levels {
			if back[k].SizeBytes != levels[k].SizeBytes ||
				back[k].LineBytes != levels[k].LineBytes ||
				back[k].Ways != levels[k].Ways {
				t.Fatalf("%q level %d = %+v, want %+v", s, k, back[k], levels[k])
			}
		}
	}
}

func TestParseGeometryRejects(t *testing.T) {
	bad := []string{
		"",                    // no levels
		"32K",                 // missing line/ways
		"32K/64",              // missing ways
		"32K:8",               // missing line
		"32K/48:8",            // non-power-of-two line
		"32K/64:7",            // sets not a power of two
		"20M/64:16",           // 20480 sets: not a power of two
		"-32K/64:8",           // negative size
		"32K/64:8,256K/128:8", // mixed line sizes
		"32K/64:eight",        // non-numeric ways
		"one/64:8",            // non-numeric size
	}
	for _, s := range bad {
		if _, err := ParseGeometry(s); err == nil {
			t.Fatalf("geometry %q accepted", s)
		}
	}
}
