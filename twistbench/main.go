// Command twistbench is the repository's benchmark: it boots real twistd
// daemons, drives them over HTTP from one closed-loop client, checks every
// answer, and prints end-to-end metrics; with -trace 1 it instead prints a
// per-layer ledger, measured by calling each layer's public functions in
// process with a span around every call. BENCHMARK.json at the repository
// root names the metrics; run.sh builds and launches it:
//
//	bash twistbench/run.sh --workload cold-run --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"twist/internal/layout"
	"twist/internal/workloads"
)

// workload is one traffic mix the benchmark can run. Each has one
// closed-loop client, so no more requests are in flight than the two CPUs
// the benchmark is sized for can serve: with more, latencies measured the
// scheduler more than the daemons.
type workload struct {
	name    string
	daemons int // twistd processes; more than one forms a fleet
	cold    bool
}

var workloadSet = []workload{
	// The paper's out-of-LLC regime: every request a distinct scale-4096
	// run, so the time goes to workload build, engine and simulation.
	{name: "cold-run", daemons: 1, cold: true},
	// Small jobs of all four kinds with repeats against a three-node
	// fleet: the cache, encoding, HTTP, forwarding, replica-cache
	// admission, reuse analysis, layouts, oracle and transform chain
	// dominate.
	{name: "fleet-mix", daemons: 3},
}

const (
	setupRuns = 9 // setups per run; setup_s is their median
	// cold-run measures whole rounds, at least minRounds and at most
	// maxRounds, so its tail is taken over 120 to 960 samples and stays
	// the p90 even when a faster engine fits more rounds in the window.
	minRounds   = 5
	maxRounds   = 40
	mixMemsimN  = 100 // fleet-mix requests whose run answers feed memsim.*
	readyBudget = 30 * time.Second
)

func main() {
	// The client keeps every answer for checking after the window; a
	// larger GC target keeps collection pauses out of the latencies.
	debug.SetGCPercent(400)
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("twistbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-run or fleet-mix")
	seed := fs.Int64("seed", canonicalSeed, "request generator seed")
	seconds := fs.Int("seconds", 40, "length of the timed window")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	bin := fs.String("twistd", "", "twistd binary")
	out := fs.String("out", ".bench_build", "directory for span dumps")
	record := fs.Bool("record", false, "write twistbench/reference.json from a cold-run at the canonical seed instead of checking it")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloadSet {
		if workloadSet[i].name == *name {
			wl = &workloadSet[i]
		}
	}
	if wl == nil || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "twistbench: usage: -twistd BIN -workload cold-run|fleet-mix -seed N -seconds S -trace 0|1")
		return 2
	}
	if *record && (!wl.cold || *seed != canonicalSeed) {
		fmt.Fprintln(os.Stderr, "twistbench: -record needs -workload cold-run at the canonical seed")
		return 2
	}
	declared, err := loadDeclared("BENCHMARK.json", *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twistbench: %v\n", err)
		return 1
	}
	b := &bench{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *bin, record: *record}
	metrics, absent, err := b.run(*trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twistbench: %v\n", err)
		return 1
	}
	if err := declared.match(metrics, absent); err != nil {
		fmt.Fprintf(os.Stderr, "twistbench: %v\n", err)
		return 1
	}
	correct := b.failed == 0 && b.drainErr == nil
	for _, line := range b.notes {
		fmt.Println(line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twistbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	if *record {
		if err := b.chk.writeReferences(filepath.Join("twistbench", "reference.json")); err != nil {
			fmt.Fprintf(os.Stderr, "twistbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is the metric list BENCHMARK.json names for one mode.
type declared map[string]string // name → unit

func loadDeclared(path string, perLayer bool) (declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	d := declared{}
	for _, m := range list {
		d[m.Name] = m.Unit
	}
	return d, nil
}

// match fails unless the printed metrics are exactly the declared ones,
// with the declared units. A metric whose engine or executor no longer
// resolves by name may be absent.
func (d declared) match(got map[string]metric, absent map[string]bool) error {
	var problems []string
	for name, unit := range d {
		m, ok := got[name]
		switch {
		case !ok && !absent[name]:
			problems = append(problems, "missing "+name)
		case ok && m.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s in %s, BENCHMARK.json says %s", name, m.Unit, unit))
		case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
			problems = append(problems, name+" is not a number")
		}
	}
	for name := range got {
		if _, ok := d[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("printed metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	wl     *workload
	seed   int64
	window time.Duration
	bin    string
	record bool

	chk       *checker
	client    *http.Client
	daemons   []*daemon
	setups    []float64
	main      []sample // the timed window
	elapsed   time.Duration
	cpu       time.Duration // daemon CPU spent in the timed window
	det       map[string]int64
	hwm       int64
	attempted int
	failed    int
	drainErr  error
	notes     []string // human-readable lines printed before the result
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// run sets the daemons up, drives the workload, tears the daemons down and
// computes the requested metrics.
func (b *bench) run(perLayer bool, out string) (map[string]metric, map[string]bool, error) {
	b.client = newClient()
	defer b.client.CloseIdleConnections()
	corpus, err := b.setup()
	defer func() {
		if b.daemons != nil {
			stopDaemons(b.daemons)
		}
	}()
	if err != nil {
		return nil, nil, err
	}
	if err := b.drive(corpus); err != nil {
		return nil, nil, err
	}
	for _, d := range b.daemons {
		hwm, err := procHWM(d.cmd.Process.Pid)
		if err != nil {
			return nil, nil, err
		}
		b.hwm += hwm
	}
	b.drainErr = stopDaemons(b.daemons)
	b.daemons = nil
	if b.drainErr != nil {
		b.notef("drain failed: %v", b.drainErr)
	}
	b.client.CloseIdleConnections()
	b.summarize()
	if !perLayer {
		m, err := b.endToEnd()
		return m, nil, err
	}
	return b.perLayer(corpus, out)
}

// setup starts the daemons setupRuns times, each time loading the
// references and waiting until every daemon is ready (and a fleet has
// converged); all but the last set are drained again at once.
func (b *bench) setup() ([]corpusEntry, error) {
	var corpus []corpusEntry
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		chk, err := loadChecker(".", b.record)
		if err != nil {
			return nil, err
		}
		ds, err := startDaemons(b.bin, b.wl.daemons)
		if err != nil {
			return nil, err
		}
		b.daemons = ds
		if err := waitReady(b.client, ds, readyBudget); err != nil {
			return nil, err
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		b.chk, corpus = chk, chk.corpus
		if k < setupRuns-1 {
			b.daemons = nil
			if err := stopDaemons(ds); err != nil {
				return nil, err
			}
			b.client.CloseIdleConnections()
		}
	}
	return corpus, nil
}

// drive runs the timed window, reads the daemons' counters, and checks
// every answer.
func (b *bench) drive(corpus []corpusEntry) error {
	before, err := b.daemonCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(b.window)
	if b.wl.cold {
		base := b.daemons[0].url
		probes := &coldProbes{seed: b.seed, corpus: corpus}
		for r := 0; r < maxRounds && (r < minRounds || time.Now().Before(deadline)); r++ {
			for _, j := range coldRound(b.seed, r) {
				b.main = append(b.main, do(b.client, base, j))
				for _, p := range probes.after(j) {
					b.main = append(b.main, do(b.client, base, p))
				}
			}
		}
	} else {
		gen, err := newMixGen(b.seed, corpus)
		if err != nil {
			return err
		}
		for time.Now().Before(deadline) {
			j := gen.next()
			b.main = append(b.main, do(b.client, b.daemons[j.Index%len(b.daemons)].url, j))
		}
	}
	b.elapsed = time.Since(start)
	after, err := b.daemonCPU()
	if err != nil {
		return err
	}
	b.cpu = after - before
	b.det = map[string]int64{}
	for _, d := range b.daemons {
		det, err := metricsCounters(b.client, d.url)
		if err != nil {
			return err
		}
		for k, v := range det {
			b.det[k] += v
		}
	}
	// Answers are checked only now, so checking takes no client CPU away
	// from the daemons while latencies are measured.
	for i := range b.main {
		if b.main[i].Err == nil {
			b.main[i].Err = b.chk.check(&b.main[i])
		}
	}
	return nil
}

func (b *bench) daemonCPU() (time.Duration, error) {
	var total time.Duration
	for _, d := range b.daemons {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// summarize counts attempts and failures and notes the first failures.
func (b *bench) summarize() {
	for _, s := range b.main {
		b.attempted++
		if s.Err != nil {
			b.failed++
			if b.failed <= 5 {
				b.notef("failed: %v", s.Err)
			}
		}
	}
	if n := b.chk.unmatched(); n > 0 {
		b.notef("%d misscurve answers had no run twin to compare with", n)
	}
	if stems := b.chk.looseStems(); len(stems) > 0 {
		b.notef("transform output equal to the committed corpus only ignoring blank lines: %s", strings.Join(stems, ", "))
	}
}

// latencies returns the latencies, in unit, of the successful samples of
// kind ("" for any) and class. Cold runs exclude cold-run's probe twins:
// cold_run_* measure the workload's own runs.
func latencies(set []sample, kind, class string, unit time.Duration) []float64 {
	return latencyGroups(set, kind, class, unit, func(job) string { return "" })[""]
}

// latencyGroups is latencies split by key(job): the request's shape, or
// its kind for hits.
func latencyGroups(set []sample, kind, class string, unit time.Duration, key func(job) string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range set {
		if s.Err == nil && s.Class == class && (kind == "" || s.Job.Kind == kind) && !(kind == "run" && s.Job.Probe) {
			k := key(s.Job)
			out[k] = append(out[k], float64(s.Latency)/float64(unit))
		}
	}
	return out
}

func byShape(j job) string { return j.Shape }
func byKind(j job) string  { return j.Kind }

// typical computes a "_p50_" metric: the geometric mean of the per-group
// medians (shapeMean), and notes the group and sample counts.
func (b *bench) typical(label string, groups map[string][]float64) (float64, error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("%s: no samples", label)
	}
	var pooled []float64
	for _, xs := range groups {
		pooled = append(pooled, xs...)
	}
	v := shapeMean(groups)
	if len(groups) <= 4 {
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.notef("  %-20s p50 %10.3f  (n=%d)", k, median(groups[k]), len(groups[k]))
		}
	}
	b.notef("%-22s %10.3f  (mean of %d shape medians; pooled p50 %.3f, n=%d)", label, v, len(groups), median(pooled), len(pooled))
	return v, nil
}

// tailOf computes a tail metric and notes its sample count; an empty
// class is an error, since every end-to-end metric must be measured.
func (b *bench) tailOf(label string, xs []float64) (float64, error) {
	pct, v, ok := tail(xs)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples are too few for a tail", label, len(xs))
	}
	b.notef("%-22s p%-4g %9.3f  (n=%d, %d beyond)", label, pct, v, len(xs), len(xs)-int(math.Ceil(pct/100*float64(len(xs)))))
	return v, nil
}

// endToEnd computes the end-to-end metrics.
func (b *bench) endToEnd() (map[string]metric, error) {
	m := map[string]metric{}
	var errs []error
	put := func(name, unit string, v float64, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		m[name] = metric{v, unit}
	}
	for _, kind := range []string{"run", "misscurve", "transform", "oracle"} {
		name := "cold_" + kind + "_p50_ms"
		v, err := b.typical(name, latencyGroups(b.main, kind, classCold, time.Millisecond, byShape))
		put(name, "ms", v, err)
	}
	v, err := b.tailOf("cold_run_tail_ms", latencies(b.main, "run", classCold, time.Millisecond))
	put("cold_run_tail_ms", "ms", v, err)
	v, err = b.typical("hit_p50_us", latencyGroups(b.main, "", classHit, time.Microsecond, byKind))
	put("hit_p50_us", "us", v, err)
	ok := 0
	for _, s := range b.main {
		if s.Err == nil && !s.Job.Probe {
			ok++
		}
	}
	put("jobs_per_s", "1/s", float64(ok)/b.elapsed.Seconds(), nil)
	put("setup_s", "s", median(b.setups), nil)
	put("peak_rss_mb", "MB", float64(b.hwm)/(1<<20), nil)
	b.notef("window %.1fs, %d requests, setups %v", b.elapsed.Seconds(), len(b.main), b.setups)
	return m, errors.Join(errs...)
}

// perLayer computes the per-layer ledger: counters from the daemon run
// just made, then the in-process traced layer calls.
func (b *bench) perLayer(corpus []corpusEntry, out string) (map[string]metric, map[string]bool, error) {
	m := map[string]metric{}
	var handler, transport []float64
	for _, s := range b.main {
		if s.Err == nil && s.Class == classHit {
			handler = append(handler, float64(s.Elapsed)/1e3)
			transport = append(transport, float64(s.Latency-s.Elapsed)/1e3)
		}
	}
	// The hit tail is a ledger metric, not an end-to-end one: a hit waits
	// behind whatever else holds the two CPUs, and its tail moved by a
	// third between runs of one commit, more than any bound allows.
	hitTail, err := b.tailOf("serve.hit_tail_us", latencies(b.main, "", classHit, time.Microsecond))
	if err != nil {
		return nil, nil, err
	}
	m["serve.hit_tail_us"] = metric{hitTail, "us"}
	m["serve.handler_us"] = metric{orZero(handler), "us"}
	m["serve.transport_us"] = metric{orZero(transport), "us"}
	for _, kind := range mixKinds {
		var bytes, n float64
		for _, s := range b.main {
			if s.Err == nil && s.Job.Kind == kind {
				bytes += float64(s.Bytes)
				n++
			}
		}
		m["serve.response_bytes."+kind] = metric{bytes / math.Max(n, 1), "bytes"}
	}
	hits, misses := float64(b.det["serve.cache.hit"]), float64(b.det["serve.cache.miss"])
	m["serve.hit_ratio"] = metric{hits / math.Max(hits+misses, 1), "ratio"}
	m["serve.coalesced"] = metric{float64(b.det["serve.coalesced"]), "count"}
	m["serve.rejected"] = metric{float64(b.det["serve.rejected"]), "count"}
	okJobs := 0
	forwarded := 0
	for _, s := range b.main {
		if s.Err == nil {
			okJobs++
			if s.Env.Via != "" {
				forwarded++
			}
		}
	}
	m["twistd.cpu_ms_per_job"] = metric{ms(b.cpu) / math.Max(float64(okJobs), 1), "ms"}
	m["cluster.forwarded_share"] = metric{float64(forwarded) / math.Max(float64(okJobs), 1), "ratio"}
	m["cluster.replica_hit_share"] = metric{float64(b.det["serve.fleet.replica_hit"]) / math.Max(float64(len(b.main)), 1), "ratio"}
	fwd := latencies(b.main, "", classForwardHit, time.Microsecond)
	hop := 0.0
	if len(fwd) > 0 && len(handler) > 0 {
		hop = median(fwd) - median(latencies(b.main, "", classHit, time.Microsecond))
	}
	m["cluster.forward_hit_p50_us"] = metric{orZero(fwd), "us"}
	m["cluster.hop_us"] = metric{hop, "us"}
	b.memsimMetrics(m)

	scale := mixScale
	if b.wl.cold {
		scale = coldScale
	}
	l := newLedger(scale, b.seed)
	if err := l.engines(); err != nil {
		return nil, nil, err
	}
	if err := l.oracleLayer(); err != nil {
		return nil, nil, err
	}
	if err := l.transformLayers(corpus); err != nil {
		return nil, nil, err
	}
	var distinct []sample // the first 200 answers with distinct digests
	seen := map[string]bool{}
	for _, s := range b.main {
		if s.Err == nil && !seen[s.Env.Digest] && len(distinct) < 200 {
			seen[s.Env.Digest] = true
			distinct = append(distinct, s)
		}
	}
	if err := l.serveLayers(distinct); err != nil {
		return nil, nil, err
	}
	total, layers, err := l.replicas(replicaSpecs(b.wl.cold))
	if err != nil {
		return nil, nil, err
	}
	untraced := latencies(b.main, "run", classCold, time.Millisecond)
	if len(untraced) == 0 {
		return nil, nil, fmt.Errorf("no cold run samples to compare the trace with")
	}
	p50 := median(untraced)
	m["trace.coverage"] = metric{median(layers) / p50, "ratio"}
	m["trace.overhead_share"] = metric{(median(total) - p50) / p50, "ratio"}
	b.notef("traced run jobs: p50 %.3f ms, layer spans cover %.3f ms; untraced cold run p50 %.3f ms", median(total), median(layers), p50)
	for name, v := range l.metrics {
		m[name] = v
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))
	if err := l.tr.write(path); err != nil {
		return nil, nil, err
	}
	b.notef("%d spans written to %s", len(l.tr.spans), path)
	return m, l.absent, nil
}

// orZero is the median of xs, or 0 for a class the workload does not have
// (forward hits outside fleet mode).
func orZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// memsimMetrics aggregates the simulated accesses and miss rates of a
// deterministic set of run answers: cold-run's first round, or the run
// answers among fleet-mix's first requests, each distinct spec once.
func (b *bench) memsimMetrics(m map[string]metric) {
	limit := mixMemsimN
	if b.wl.cold {
		limit = len(coldRound(b.seed, 0))
	}
	var acc, l2a, l2m, l3a, l3m int64
	seen := map[string]bool{}
	for _, s := range b.main {
		if s.Err != nil || s.Job.Kind != "run" || s.Job.Probe || s.Job.Index >= limit || seen[s.Env.Digest] {
			continue
		}
		seen[s.Env.Digest] = true
		var r runResult
		if json.Unmarshal(s.Env.Result, &r) != nil {
			continue
		}
		for _, lv := range r.MissRates {
			switch lv.Level {
			case "L1":
				acc += lv.Accesses
			case "L2":
				l2a, l2m = l2a+lv.Accesses, l2m+lv.Misses
			case "L3":
				l3a, l3m = l3a+lv.Accesses, l3m+lv.Misses
			}
		}
	}
	m["memsim.accesses"] = metric{float64(acc), "count"}
	m["memsim.l2_miss_rate"] = metric{float64(l2m) / math.Max(float64(l2a), 1), "ratio"}
	m["memsim.l3_miss_rate"] = metric{float64(l3m) / math.Max(float64(l3a), 1), "ratio"}
}

// replicaSpecs are the run jobs the traced run replays in process, matching
// the workload's own run traffic.
func replicaSpecs(cold bool) []replicaSpec {
	var out []replicaSpec
	for _, w := range workloads.Names() {
		for _, v := range []string{"original", "twisted"} {
			if cold {
				out = append(out, replicaSpec{w, v, 1, 0}, replicaSpec{w, v, 2, 0})
				continue
			}
			for _, name := range mixLayouts {
				k, err := layout.ParseKind(name)
				if err != nil {
					panic(err) // mixLayouts holds valid names
				}
				out = append(out, replicaSpec{w, v, 1, k})
			}
		}
	}
	return out
}
