package serve

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/workloads"
)

// TestRunJobMatchesTwoPhase pins the single traced pass of a sequential run
// job against the two-phase computation it replaced: Stats, EngineOps, and
// Checksum from a separate untraced RunSeq, then miss rates from a warmup
// and a measured traced pass replayed inline into a sequential LRU model.
// Every field of the result must agree, for every workload under each
// legal schedule and each layout.
func TestRunJobMatchesTwoPhase(t *testing.T) {
	t.Parallel()
	scheds := []RunSpec{
		{Variant: "original"},
		{Variant: "interchanged"},
		{Variant: "twisted"},
		{Schedule: "stripmine(64)∘twist(flagged)"},
	}
	checked := 0
	for _, w := range workloads.Names() {
		for _, sc := range scheds {
			for _, lay := range []string{"", "schedule", "veb"} {
				spec := RunSpec{Workload: w, Variant: sc.Variant, Schedule: sc.Schedule,
					Scale: 256, Seed: 5, Workers: 1, Layout: lay}
				if err := spec.Normalize(); err != nil {
					if strings.Contains(err.Error(), "witness") {
						continue // the schedule is illegal on this workload
					}
					t.Fatal(err)
				}
				got, err := RunJob(context.Background(), &spec)
				if err != nil {
					t.Fatal(err)
				}
				want := twoPhaseRun(t, spec)
				gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for k := 0; k < gv.NumField(); k++ {
					if g, w := gv.Field(k).Interface(), wv.Field(k).Interface(); !reflect.DeepEqual(g, w) {
						t.Errorf("%s/%s/layout=%q: %s = %+v, two-phase %+v",
							spec.Workload, spec.Variant, spec.Layout, gv.Type().Field(k).Name, g, w)
					}
				}
				checked++
			}
		}
	}
	if checked < len(workloads.Names())*len(scheds) {
		t.Fatalf("only %d combinations checked", checked)
	}
}

// twoPhaseRun is the sequential run job as computed before the fused pass.
func twoPhaseRun(t *testing.T, s RunSpec) *RunResult {
	t.Helper()
	in, err := workloads.ByName(s.Workload, s.Scale, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseVariantExpr(s.Variant)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := nest.ParseFlagMode(s.FlagMode)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := specEngine(s.Engine)
	if err != nil {
		t.Fatal(err)
	}
	configure := func(e *nest.Exec) {
		e.Flags = fm
		e.Engine = eng
	}
	st, engOps, err := in.RunSeq(nil, v, configure)
	if err != nil {
		t.Fatal(err)
	}
	res := &RunResult{
		Workload: s.Workload, Variant: s.Variant, Scale: s.Scale, Seed: s.Seed,
		Workers: s.Workers, FlagMode: s.FlagMode, SimWorkers: s.SimWorkers,
		Geometry: s.Geometry, Layout: s.Layout, Engine: s.Engine,
		Checksum: obs.FormatUint(in.Checksum()),
		Stats:    st, Ops: st.Ops(), EngineOps: engOps, Tasks: 1,
	}
	lk, err := layout.ParseKind(s.Layout)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := in.UnderLayout(lk, v)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := memsim.ParseGeometry(s.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	sim := newLRUModel(levels)
	for pass := 0; pass < 2; pass++ { // warmup, then measured
		if _, _, err := lin.RunEmit(nil, v, sim.access, configure); err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			sim.resetStats()
		}
	}
	for _, l := range sim.levels {
		ls := memsim.LevelStats{Name: l.name, Accesses: l.accesses, Misses: l.misses, Evictions: l.evictions}
		res.MissRates = append(res.MissRates, LevelMissRate{Level: ls.Name, Accesses: ls.Accesses,
			Misses: ls.Misses, Evictions: ls.Evictions, Rate: ls.MissRate()})
	}
	return res
}

// lruModel is a plain sequential model of the simulated hierarchy: true-LRU
// set-associative levels, probed closest first, each miss installing the
// line and descending. It is written independently of memsim so the test
// checks the pipelined simulator's numbers, not its code.
type lruModel struct{ levels []*lruLevel }

type lruLevel struct {
	name                        string
	lineShift                   uint
	sets                        uint64
	ways                        [][]uint64 // per set, most recent first; 0 is empty
	accesses, misses, evictions int64
}

func newLRUModel(cfgs []memsim.CacheConfig) *lruModel {
	m := &lruModel{}
	for _, c := range cfgs {
		sets := c.SizeBytes / c.LineBytes / c.Ways
		l := &lruLevel{name: c.Name, sets: uint64(sets), ways: make([][]uint64, sets)}
		for 1<<l.lineShift < c.LineBytes {
			l.lineShift++
		}
		for k := range l.ways {
			l.ways[k] = make([]uint64, c.Ways)
		}
		m.levels = append(m.levels, l)
	}
	return m
}

func (m *lruModel) access(a memsim.Addr) {
	for _, l := range m.levels {
		line := uint64(a) >> l.lineShift
		ws := l.ways[line%l.sets]
		l.accesses++
		hit := len(ws) - 1
		for k, tag := range ws {
			if tag == line+1 {
				hit = k
				break
			}
		}
		if ws[hit] == line+1 {
			copy(ws[1:hit+1], ws[:hit])
			ws[0] = line + 1
			return
		}
		l.misses++
		if ws[hit] != 0 {
			l.evictions++
		}
		copy(ws[1:], ws[:len(ws)-1])
		ws[0] = line + 1
	}
}

func (m *lruModel) resetStats() {
	for _, l := range m.levels {
		l.accesses, l.misses, l.evictions = 0, 0, 0
	}
}

// TestRunJobLeavesNoGoroutines checks that a run job stops every goroutine
// it starts — the simulator's shard workers included — for sequential and
// parallel engines and for one and several simulator shards. It runs
// serially, so no sibling test moves the count.
func TestRunJobLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		for _, simWorkers := range []int{1, 3} {
			spec := &RunSpec{Workload: "PC", Variant: "twisted", Scale: 256, Seed: 2,
				Workers: workers, SimWorkers: simWorkers}
			if _, err := RunJob(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A worker goroutine is counted until it returns, a moment after the
	// Close that waited for it.
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("RunJob left %d goroutines behind (%d before, %d after)", after-before, before, after)
	}
}
