package experiments

import (
	"fmt"
	"testing"

	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/workloads"
)

// The acceptance differential for the parallel simulator on real traces: for
// every benchmark in the suite, the set-partitioned engine at several worker
// counts produces per-level stats bit-identical to the one-shard engine (the
// pipelined sequential walk) on the same twisted-schedule trace. (memsim's
// own differential tests pin both against the inline Hierarchy on synthetic
// traces; this one covers the six workloads' actual access patterns —
// pointer-chasing cross products, truncated traversals, k-d sweeps.) Table-driven: one parallel subtest per bench, materializing its
// own trace, with a nested subtest per worker count.
func TestShardedSimMatchesSequentialOnSuite(t *testing.T) {
	suiteNames := []string{"TJ", "MM", "PC", "NN", "KNN", "VP"}
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := workloads.Suite(256, 17)[k]
			// Materialize the twisted trace once so every engine consumes the
			// byte-identical address sequence.
			var trace []memsim.Addr
			in.Reset()
			e := nest.MustNew(in.TracedSpec(func(a memsim.Addr) { trace = append(trace, a) }))
			e.Run(nest.Twisted())
			if len(trace) == 0 {
				t.Fatal("empty trace")
			}

			seq := newSim(1)
			seq.AccessBatch(trace)
			want := seq.Stats()
			seq.Close()

			for _, w := range []int{2, 4, 8} {
				w := w
				t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
					sim := newSim(w)
					sim.AccessBatch(trace)
					got := sim.Stats()
					sim.Close()
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("level %s stats %+v, want %+v", want[k].Name, got[k], want[k])
						}
					}
				})
			}
		})
	}
}
