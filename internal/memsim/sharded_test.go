package memsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// threeLevels is a small validated geometry whose smallest level has 8 sets,
// so up to 8 shards carry distinct routing keys.
func threeLevels() []CacheConfig {
	return []CacheConfig{
		{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2},  // 8 sets
		{Name: "L2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4},  // 16 sets
		{Name: "L3", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8}, // 32 sets
	}
}

func randomTrace(n int, spread int, seed int64) []Addr {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]Addr, n)
	for k := range trace {
		// Unaligned byte addresses: routing must key on the line, not the
		// raw address.
		trace[k] = Addr(rng.Intn(spread)*64 + rng.Intn(64))
	}
	return trace
}

// The tentpole invariant: the sharded simulator's merged Stats are
// bit-identical to the sequential simulator's, for every worker count —
// including W greater than the routable set count (clamped) and batch sizes
// that leave partial staged batches at drain time.
func TestShardedMatchesSequential(t *testing.T) {
	t.Parallel()
	trace := randomTrace(200_000, 1<<12, 7)
	seq := MustNewHierarchy(threeLevels()...)
	seq.AccessBatch(trace)
	want := seq.Stats()
	for _, workers := range []int{1, 2, 3, 4, 8, 64} {
		for _, batch := range []int{1, 37, 512} {
			sim, err := New(Config{Levels: threeLevels(), SimWorkers: workers, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			sim.AccessBatch(trace)
			got := sim.Stats()
			sim.Close()
			for li := range want {
				if got[li] != want[li] {
					t.Fatalf("W=%d batch=%d level %s: %+v, want %+v",
						workers, batch, want[li].Name, got[li], want[li])
				}
			}
		}
	}
}

// Warmup/measure protocol: ResetStats must drain in-flight batches first,
// and the steady-state stats must still match the sequential engine's.
func TestShardedResetStatsMatchesSequential(t *testing.T) {
	t.Parallel()
	trace := randomTrace(50_000, 1<<10, 11)
	run := func(sim Simulator) []LevelStats {
		sim.AccessBatch(trace)
		sim.ResetStats()
		sim.AccessBatch(trace)
		st := sim.Stats()
		sim.Close()
		return st
	}
	want := run(MustNewHierarchy(threeLevels()...))
	got := run(MustNew(Config{Levels: threeLevels(), SimWorkers: 4, Batch: 64}))
	for li := range want {
		if got[li] != want[li] {
			t.Fatalf("level %s: %+v, want %+v", want[li].Name, got[li], want[li])
		}
	}
}

// The worker clamp: requesting more shards than the smallest level has sets
// must cap at the routable key count, never spawn idle mis-routed shards.
func TestShardedWorkerClamp(t *testing.T) {
	t.Parallel()
	sh, err := NewSharded(threeLevels(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if got := sh.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8 (L1 set count)", got)
	}
	if _, err := NewSharded(threeLevels(), 0, 0); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := NewSharded(nil, 2, 0); err == nil {
		t.Fatal("empty geometry accepted")
	}
}

// Every address must land on the shard its smallest-level set bits name, so
// any two addresses sharing any level's set share a shard.
func TestShardRoutingColocatesSets(t *testing.T) {
	t.Parallel()
	sh, err := NewSharded(threeLevels(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10_000; trial++ {
		a := Addr(rng.Uint64() >> 16)
		b := a + Addr(8*1024*(1+rng.Intn(64))) // same low set bits, different tag
		ka, kb := sh.shardOf(a), sh.shardOf(b)
		if ka != kb {
			t.Fatalf("addresses %#x and %#x share all set indices but map to shards %d and %d", a, b, ka, kb)
		}
		if ka < 0 || ka >= sh.Shards() {
			t.Fatalf("shard %d out of range", ka)
		}
	}
}

// TestIdleShardGoroutineParks checks that an idle shard worker parks
// instead of polling, so an abandoned simulator costs no CPU, and that a
// dispatched batch wakes it: the stats after a park match the inline walk.
func TestIdleShardGoroutineParks(t *testing.T) {
	t.Parallel()
	sh, err := NewSharded(threeLevels(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	waitParked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for _, s := range sh.shards {
			for !s.q.parked.Load() {
				if time.Now().After(deadline) {
					t.Fatal("idle shard worker never parked")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitParked()
	trace := randomTrace(20_000, 1<<10, 9)
	seq := MustNewHierarchy(threeLevels()...)
	seq.AccessBatch(trace)
	sh.AccessBatch(trace)
	got, want := sh.Stats(), seq.Stats()
	for li := range want {
		if got[li] != want[li] {
			t.Fatalf("level %s after park: %+v, want %+v", want[li].Name, got[li], want[li])
		}
	}
	waitParked()
}

// Close is idempotent and Stats stay readable afterwards.
func TestShardedCloseIdempotent(t *testing.T) {
	t.Parallel()
	sim := MustNew(Config{Levels: threeLevels(), SimWorkers: 4})
	sim.AccessBatch(randomTrace(10_000, 1<<10, 5))
	want := sim.Stats()
	sim.Close()
	sim.Close()
	got := sim.Stats()
	for li := range want {
		if got[li] != want[li] {
			t.Fatalf("stats changed across Close: %+v, want %+v", got[li], want[li])
		}
	}
}

// A Stream over the sharded engine with concurrent producer sinks must
// count every emitted address exactly once (merge mode), and the run must
// be race-clean — this is the -race coverage of the router called out in
// the CI satellite.
func TestStreamOverShardedCountsAllAccesses(t *testing.T) {
	t.Parallel()
	sim := MustNew(Config{Levels: threeLevels(), SimWorkers: 4, Batch: 128})
	defer sim.Close()
	st := NewStream(sim, 64)
	const producers, each = 8, 10_000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		sk := st.Sink()
		wg.Add(1)
		go func(p int, sk *Sink) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				sk.Emit(Addr((p*each + k) * 64))
			}
		}(p, sk)
	}
	wg.Wait()
	st.Close()
	if got := sim.Stats()[0].Accesses; got != producers*each {
		t.Fatalf("L1 saw %d accesses, want %d", got, producers*each)
	}
}

// FuzzShardRouting drives the set-index router with arbitrary address
// material and checks the bit-identical contract differentially: whatever
// the trace, the sharded merge must equal the sequential walk.
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 254, 17}, uint8(4))
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, w uint8) {
		workers := int(w)%9 + 1
		if len(raw) > 1<<14 {
			raw = raw[:1<<14]
		}
		trace := make([]Addr, 0, len(raw)/2)
		for k := 0; k+1 < len(raw); k += 2 {
			// Two fuzz bytes pick a line and an offset within it.
			trace = append(trace, Addr(int(raw[k])*64+int(raw[k+1])%64))
		}
		levels := []CacheConfig{
			{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 2}, // 4 sets
			{Name: "L2", SizeBytes: 2 << 10, LineBytes: 64, Ways: 4},
		}
		seq := MustNewHierarchy(levels...)
		seq.AccessBatch(trace)
		want := seq.Stats()
		sim := MustNew(Config{Levels: levels, SimWorkers: workers, Batch: 16})
		sim.AccessBatch(trace)
		got := sim.Stats()
		sim.Close()
		for li := range want {
			if got[li] != want[li] {
				t.Fatalf("W=%d level %s: %+v, want %+v", workers, want[li].Name, got[li], want[li])
			}
		}
	})
}

// --- SPSC ring -------------------------------------------------------------

// One producer, one consumer: every batch arrives exactly once, in order.
func TestSPSCOrderPreserved(t *testing.T) {
	t.Parallel()
	q := newSPSC(8)
	const n = 10_000
	go func() {
		for k := 0; k < n; k++ {
			q.push([]Addr{Addr(k)})
		}
		q.close()
	}()
	for k := 0; k < n; k++ {
		b, ok := q.pop()
		if !ok {
			t.Fatalf("ring closed after %d of %d batches", k, n)
		}
		if len(b) != 1 || b[0] != Addr(k) {
			t.Fatalf("batch %d out of order: %v", k, b)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded past close")
	}
}

func TestSPSCTryOps(t *testing.T) {
	t.Parallel()
	q := newSPSC(2)
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop on empty ring succeeded")
	}
	if !q.tryPush([]Addr{1}) || !q.tryPush([]Addr{2}) {
		t.Fatal("tryPush failed with room available")
	}
	if q.tryPush([]Addr{3}) {
		t.Fatal("tryPush succeeded on a full ring")
	}
	b, ok := q.tryPop()
	if !ok || b[0] != 1 {
		t.Fatalf("tryPop = %v, %v", b, ok)
	}
}

// BenchmarkShardedAccess compares the sequential walk against the sharded
// pipeline at several worker counts over one reused trace; each iteration
// ends with a drain so the timed region always covers the full LRU work.
func BenchmarkShardedAccess(b *testing.B) {
	trace := randomTrace(1<<16, 1<<22, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("w%d", workers)
		if workers <= 1 {
			name = "seq"
		}
		b.Run(name, func(b *testing.B) {
			sim := MustNew(Config{Levels: DefaultLevels(), SimWorkers: workers})
			defer sim.Close()
			b.SetBytes(int64(len(trace) * 8))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sim.AccessBatch(trace)
				sim.Stats()
			}
		})
	}
}
