package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"twist/internal/layout"
	"twist/internal/loopfront"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/oracle"
	"twist/internal/serve"
	"twist/internal/transform"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// The traced run calls each layer's public functions in process and wraps
// every call in a span. One public call, RunSink, mixes the engine, trace
// emission and the cache simulation; the ledger separates them by timing
// the engine alone (RunSeq), the engine plus a counting emit (RunEmit), and
// replays of one recorded trace through the simulator and through the
// reuse analyzer.

// ledgerReps is how many times each timed layer call runs; the median
// counts.
const ledgerReps = 3

// oracleScale is the scale of the ledger's oracle captures and checks.
const oracleScale = 512

// setEnum sets the integer field named field of the struct ptr points to,
// to the value of the field's type whose String() is name. It reports
// false when there is no such field or value. Engines are selected this
// way, by name at run time, so that deleting one turns its metrics absent
// instead of breaking the benchmark's build.
func setEnum(ptr any, field, name string) bool {
	f := reflect.ValueOf(ptr).Elem().FieldByName(field)
	if !f.IsValid() || !f.CanSet() || !f.CanInt() {
		return false
	}
	for k := int64(0); k < 16; k++ {
		v := reflect.New(f.Type()).Elem()
		v.SetInt(k)
		if s, ok := v.Interface().(fmt.Stringer); ok && s.String() == name {
			f.SetInt(k)
			return true
		}
	}
	return false
}

// setExecutor selects a parallel executor by name ("stealing" or
// "static"), reporting false when the configuration has no such choice.
func setExecutor(cfg *nest.RunConfig, name string) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName("Stealing")
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return false
	}
	switch name {
	case "stealing":
		f.SetBool(true)
	case "static":
		f.SetBool(false)
	default:
		return false
	}
	return true
}

// timed runs f reps times inside spans named name under parent and
// returns the median duration and the heap allocations of the median run.
func (t *tracer) timed(parent *span, name string, reps int, f func()) (time.Duration, uint64) {
	type rep struct {
		d      time.Duration
		allocs uint64
	}
	rs := make([]rep, reps)
	var ms runtime.MemStats
	for k := range rs {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		s := t.child(parent, name, f)
		runtime.ReadMemStats(&ms)
		rs[k] = rep{s.dur(), ms.Mallocs - before}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].d < rs[j].d })
	m := rs[len(rs)/2]
	return m.d, m.allocs
}

// engineSums accumulates one workload's (or the whole ledger's) layer
// costs; the reported per-unit figures are ratios of sums.
type engineSums struct {
	builds                              int
	build                               time.Duration
	iters, accesses                     int64
	seq, steal, static, iterative, emit time.Duration
	seqAllocs, sinkAllocs               uint64
	sink, sim, reuse                    time.Duration
	passes                              int
	realize                             time.Duration
	realizes                            int
}

func (a *engineSums) add(b *engineSums) {
	a.builds += b.builds
	a.build += b.build
	a.iters += b.iters
	a.accesses += b.accesses
	a.seq += b.seq
	a.steal += b.steal
	a.static += b.static
	a.iterative += b.iterative
	a.emit += b.emit
	a.seqAllocs += b.seqAllocs
	a.sinkAllocs += b.sinkAllocs
	a.sink += b.sink
	a.sim += b.sim
	a.reuse += b.reuse
	a.passes += b.passes
	a.realize += b.realize
	a.realizes += b.realizes
}

// ledger is the traced run's in-process measurement.
type ledger struct {
	tr      *tracer
	scale   int
	seed    int64
	metrics map[string]metric
	absent  map[string]bool
	// haveSteal and friends record which named engines and executors
	// resolved at run time.
	haveSteal, haveStatic, haveIterative bool
}

func newLedger(scale int, seed int64) *ledger {
	l := &ledger{tr: &tracer{}, scale: scale, seed: seed, metrics: map[string]metric{}, absent: map[string]bool{}}
	var cfg nest.RunConfig
	l.haveSteal = setExecutor(&cfg, "stealing")
	l.haveStatic = setExecutor(&cfg, "static")
	l.haveIterative = setEnum(&nest.Exec{}, "Engine", "iterative")
	return l
}

// engines measures every engine-side layer for the six paper workloads
// under the original and twisted schedules.
func (l *ledger) engines() error {
	geometry, err := memsim.ParseGeometry(serve.DefaultGeometry)
	if err != nil {
		return err
	}
	var total engineSums
	for _, w := range workloads.Names() {
		var ws engineSums
		root := l.tr.begin("ledger." + w)
		var in *workloads.Instance
		var berr error
		d, _ := l.tr.timed(root, "workloads.build", ledgerReps, func() {
			in, berr = workloads.ByName(w, l.scale, l.seed)
		})
		if berr != nil {
			return berr
		}
		ws.build += d
		ws.builds++
		for _, name := range []string{"original", "twisted"} {
			sched, err := algebra.ParseSchedule(name)
			if err != nil {
				return err
			}
			v := sched.Variant()
			if err := l.variant(root, in, v, geometry, &ws); err != nil {
				return fmt.Errorf("%s %s: %w", w, name, err)
			}
		}
		l.tr.close(root)
		l.engineMetrics("."+w, &ws)
		total.add(&ws)
	}
	l.engineMetrics("", &total)
	l.metrics["nest.iterations"] = metric{float64(total.iters), "count"}
	return nil
}

// variant measures one (workload, schedule) pair.
func (l *ledger) variant(root *span, in *workloads.Instance, v nest.Variant, geometry []memsim.CacheConfig, ws *engineSums) error {
	var st nest.Stats
	var rerr error
	d, allocs := l.tr.timed(root, "nest.run_seq", ledgerReps, func() {
		st, _, rerr = in.RunSeq(nil, v, nil)
	})
	if rerr != nil {
		return rerr
	}
	ws.seq += d
	ws.seqAllocs += allocs
	ws.iters += st.Iterations

	parallel := func(executor string) time.Duration {
		cfg := nest.RunConfig{Variant: v, Workers: 2}
		setExecutor(&cfg, executor)
		d, _ := l.tr.timed(root, "nest.run_"+executor, ledgerReps, func() { _, rerr = in.RunWith(cfg) })
		return d
	}
	if l.haveSteal {
		ws.steal += parallel("stealing")
	}
	if l.haveStatic {
		ws.static += parallel("static")
	}
	if l.haveIterative {
		d, _ := l.tr.timed(root, "nest.run_iterative", ledgerReps, func() {
			_, _, rerr = in.RunSeq(nil, v, func(e *nest.Exec) { setEnum(e, "Engine", "iterative") })
		})
		ws.iterative += d
	}
	if rerr != nil {
		return rerr
	}

	var n int64
	d, _ = l.tr.timed(root, "workloads.emit", ledgerReps, func() {
		n = 0
		_, _, rerr = in.RunEmit(nil, v, func(memsim.Addr) { n++ }, nil)
	})
	if rerr != nil {
		return rerr
	}
	ws.emit += d
	ws.accesses += n

	for _, k := range []layout.Kind{layout.Schedule, layout.VEB} {
		d, _ := l.tr.timed(root, "layout.realize", ledgerReps, func() { _, rerr = in.UnderLayout(k, v) })
		ws.realize += d
		ws.realizes++
	}
	if rerr != nil {
		return rerr
	}

	d, allocs = l.tr.timed(root, "workloads.traced_pass", ledgerReps, func() {
		sim := memsim.MustNew(memsim.Config{Levels: geometry})
		stream := memsim.NewStream(sim, 0)
		_, _, rerr = in.RunSink(nil, v, stream.Sink(), nil)
		stream.Close()
		sim.Close()
	})
	ws.sink += d
	ws.sinkAllocs += allocs
	ws.passes++

	trace := make([]memsim.Addr, 0, n)
	rec := l.tr.open("workloads.record", root.ID)
	_, _, err := in.RunEmit(nil, v, func(a memsim.Addr) { trace = append(trace, a) }, nil)
	l.tr.close(rec)
	if err != nil {
		return err
	}
	d, _ = l.tr.timed(root, "memsim.sim", ledgerReps, func() {
		sim := memsim.MustNew(memsim.Config{Levels: geometry})
		sim.AccessBatch(trace)
		sim.Close()
	})
	ws.sim += d
	d, _ = l.tr.timed(root, "memsim.reuse", ledgerReps, func() {
		ra := memsim.NewReuseAnalyzer()
		h := memsim.NewHistogram()
		for _, a := range trace {
			h.Add(ra.Access(a / 64))
		}
	})
	ws.reuse += d
	return rerr
}

// perUnit divides a duration by a count in ns, 0 when there is no count.
func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// engineMetrics reports one engineSums under suffix ("" for the total).
func (l *ledger) engineMetrics(suffix string, s *engineSums) {
	set := func(name string, ok bool, v float64, unit string) {
		if ok {
			l.metrics[name+suffix] = metric{v, unit}
		} else {
			l.absent[name+suffix] = true
		}
	}
	set("workloads.build_ms", true, ms(s.build)/float64(s.builds), "ms")
	set("nest.ns_per_iter", true, perUnit(s.seq, s.iters), "ns")
	set("nest.allocs_per_iter", true, float64(s.seqAllocs)/float64(s.iters), "count")
	set("nest.steal_ns_per_iter", l.haveSteal, perUnit(s.steal, s.iters), "ns")
	set("nest.static_ns_per_iter", l.haveStatic, perUnit(s.static, s.iters), "ns")
	set("nest.iterative_ns_per_iter", l.haveIterative, perUnit(s.iterative, s.iters), "ns")
	set("workloads.emit_ns_per_access", true, perUnit(s.emit-s.seq, s.accesses), "ns")
	set("workloads.traced_pass_ms", true, ms(s.sink)/float64(s.passes), "ms")
	set("workloads.traced_allocs_per_iter", true, float64(s.sinkAllocs)/float64(s.iters), "count")
	set("memsim.sim_ns_per_access", true, perUnit(s.sim, s.accesses), "ns")
	set("memsim.reuse_ns_per_access", true, perUnit(s.reuse, s.accesses), "ns")
	if suffix == "" {
		set("layout.realize_ms", true, ms(s.realize)/float64(s.realizes), "ms")
	}
}

// oracleLayer times oracle.Capture and a twisted-schedule check per
// workload.
func (l *ledger) oracleLayer() error {
	sched, err := algebra.ParseSchedule("twisted")
	if err != nil {
		return err
	}
	var capture, check time.Duration
	for _, w := range workloads.Names() {
		in, err := workloads.ByName(w, oracleScale, l.seed)
		if err != nil {
			return err
		}
		root := l.tr.begin("ledger.oracle." + w)
		spec := in.OracleSpec()
		var g *oracle.Trace
		d, _ := l.tr.timed(root, "oracle.capture", ledgerReps, func() { g, err = oracle.Capture(spec) })
		if err != nil {
			return err
		}
		capture += d
		var verdict *oracle.Verdict
		d, _ = l.tr.timed(root, "oracle.check", ledgerReps, func() {
			verdict = g.CheckVariantOn(spec, nest.EngineRecursive, sched.Variant(), nest.FlagCounter, true)
		})
		l.tr.close(root)
		if !verdict.OK {
			return fmt.Errorf("oracle %s: %s", w, verdict)
		}
		check += d
	}
	n := float64(len(workloads.Names()))
	l.metrics["oracle.capture_ms"] = metric{ms(capture) / n, "ms"}
	l.metrics["oracle.check_ms"] = metric{ms(check) / n, "ms"}
	return nil
}

// transformLayers times the transform chain on the corpus: the loop
// front-end rewrite, the template parse and the schedule generation.
func (l *ledger) transformLayers(corpus []corpusEntry) error {
	const reps = 15
	var rewrite, parse, generate time.Duration
	var rewrites int
	for _, c := range corpus {
		root := l.tr.begin("ledger.transform." + c.Stem)
		src := []byte(c.Source)
		var err error
		if c.Frontend == "loops" {
			var u *loopfront.Unit
			d, _ := l.tr.timed(root, "loopfront.rewrite", reps, func() { u, err = loopfront.Single("input.go", []byte(c.Source), "") })
			if err != nil {
				return err
			}
			rewrite += d
			rewrites++
			src = u.Source
		}
		var t *transform.Template
		d, _ := l.tr.timed(root, "transform.parse", reps, func() { t, err = transform.ParseFile("input.go", src) })
		if err != nil {
			return err
		}
		parse += d
		var out []byte
		d, _ = l.tr.timed(root, "algebra.generate", reps, func() { out, err = algebra.GenerateSchedules(t, nil) })
		l.tr.close(root)
		if err != nil {
			return err
		}
		generate += d
		if want := c.Expected; string(out) != want && !(c.Loose && blankless(string(out)) == blankless(want)) {
			return fmt.Errorf("transform %s: generated source differs from the corpus", c.Stem)
		}
	}
	l.metrics["loopfront.rewrite_ms"] = metric{ms(rewrite) / float64(rewrites), "ms"}
	l.metrics["transform.parse_ms"] = metric{ms(parse) / float64(len(corpus)), "ms"}
	l.metrics["algebra.generate_ms"] = metric{ms(generate) / float64(len(corpus)), "ms"}
	return nil
}

// serveLayers times, over the given answered requests, spec normalization
// plus digest of each request and encoding of each result.
func (l *ledger) serveLayers(results []sample) error {
	const reps = 20
	root := l.tr.begin("ledger.serve")
	defer l.tr.close(root)
	var norm time.Duration
	for _, r := range results {
		j := r.Job
		var err error
		d, _ := l.tr.timed(root, "serve.normalize", reps, func() {
			var spec serve.Spec
			switch j.Kind {
			case "run":
				spec = &serve.RunSpec{}
			case "misscurve":
				spec = &serve.MissCurveSpec{}
			case "transform":
				spec = &serve.TransformSpec{}
			default:
				spec = &serve.OracleSpec{}
			}
			// Decoding is the HTTP layer's cost; it stays inside the span
			// only because Normalize mutates the spec in place.
			if err = json.Unmarshal(j.Body, spec); err == nil {
				if err = spec.Normalize(); err == nil {
					_ = serve.Digest(spec)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("normalize %s: %w", j.Kind, err)
		}
		norm += d
	}
	var enc time.Duration
	for _, s := range results {
		var v any
		switch s.Job.Kind {
		case "run":
			v = &serve.RunResult{}
		case "misscurve":
			v = &serve.MissCurveResult{}
		case "transform":
			v = &serve.TransformResult{}
		default:
			v = &serve.OracleResult{}
		}
		if err := json.Unmarshal(s.Env.Result, v); err != nil {
			return err
		}
		var err error
		d, _ := l.tr.timed(root, "serve.encode", reps, func() { _, err = json.Marshal(v) })
		if err != nil {
			return err
		}
		enc += d
	}
	l.metrics["serve.normalize_us"] = metric{float64(norm.Nanoseconds()) / 1e3 / float64(len(results)), "us"}
	l.metrics["serve.encode_us"] = metric{float64(enc.Nanoseconds()) / 1e3 / float64(len(results)), "us"}
	return nil
}

// replicaSpec is one run job the traced run replays in process.
type replicaSpec struct {
	workload, variant string
	workers           int
	layout            layout.Kind
}

// replicas replays run jobs in process, one trace per job, with a span
// around each layer call in the order RunSpec's execution makes them, and
// returns each job's total and layer-covered durations.
func (l *ledger) replicas(specs []replicaSpec) (total, layers []float64, err error) {
	geometry, err := memsim.ParseGeometry(serve.DefaultGeometry)
	if err != nil {
		return nil, nil, err
	}
	for _, rs := range specs {
		sched, err := algebra.ParseSchedule(rs.variant)
		if err != nil {
			return nil, nil, err
		}
		v := sched.Variant()
		first := len(l.tr.spans)
		root := l.tr.begin("job.run")
		var in *workloads.Instance
		l.tr.child(root, "workloads.build", func() { in, err = workloads.ByName(rs.workload, l.scale, l.seed) })
		if err != nil {
			return nil, nil, err
		}
		res := &serve.RunResult{Workload: rs.workload, Variant: v.String(), Scale: l.scale, Seed: l.seed,
			Workers: rs.workers, FlagMode: nest.FlagCounter.String(), SimWorkers: 1, Geometry: serve.DefaultGeometry}
		l.tr.child(root, "nest.run", func() {
			if rs.workers <= 1 {
				res.Stats, res.EngineOps, err = in.RunSeq(nil, v, nil)
				res.Tasks = 1
				return
			}
			cfg := nest.RunConfig{Variant: v, Workers: rs.workers}
			setExecutor(&cfg, "stealing")
			var r nest.RunResult
			r, err = in.RunWith(cfg)
			res.Stats, res.EngineOps, res.Tasks = r.Stats, r.EngineOps, r.Tasks
		})
		if err != nil {
			return nil, nil, err
		}
		res.Ops = res.Stats.Ops()
		res.Checksum = obs.FormatUint(in.Checksum())
		var lin *workloads.Instance
		l.tr.child(root, "layout.realize", func() { lin, err = in.UnderLayout(rs.layout, v) })
		if err != nil {
			return nil, nil, err
		}
		sim := memsim.MustNew(memsim.Config{Levels: geometry})
		for pass := 0; pass < 2; pass++ { // warmup, then measured
			l.tr.child(root, "workloads.traced_pass", func() {
				stream := memsim.NewStream(sim, 0)
				_, _, err = lin.RunSink(nil, v, stream.Sink(), nil)
				stream.Close()
			})
			if err != nil {
				return nil, nil, err
			}
			if pass == 0 {
				sim.ResetStats()
			}
		}
		for _, ls := range sim.Stats() {
			res.MissRates = append(res.MissRates, serve.LevelMissRate{Level: ls.Name, Accesses: ls.Accesses,
				Misses: ls.Misses, Evictions: ls.Evictions, Rate: ls.MissRate()})
		}
		sim.Close()
		l.tr.child(root, "serve.encode", func() { _, err = json.Marshal(res) })
		l.tr.close(root)
		if err != nil {
			return nil, nil, err
		}
		total = append(total, ms(root.dur()))
		layers = append(layers, ms(root.dur()-selfTimes(l.tr.spans[first:])[root.ID]))
	}
	return total, layers, nil
}
