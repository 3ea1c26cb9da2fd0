package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"twist/internal/serve"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// job is one generated twistd request plus what its answer is checked
// against.
type job struct {
	Index  int    // position in the generator's sequence
	Kind   string // run, misscurve, transform, oracle
	Body   []byte // the JSON spec POSTed to /v1/<Kind>
	Repeat bool   // the same spec was generated before
	Probe  bool   // a cold-run probe, not one of its cold runs
	// Shape is the request's axes without its seed: latencies are
	// summarized per shape, so the summary does not depend on how the
	// seed mixes cheap and costly shapes.
	Shape string

	Group  string // run: "workload/scale/seed"; checksums agree within a group
	Match  string // run, misscurve: workload/schedule/scale/seed, which fix the access count
	Ref    string // run: key into the recorded references ("" when none applies)
	Corpus string // transform: corpus stem whose *_twisted.go is the expected source
}

// The canonical seed: cold-run specs at this seed are checked against the
// recorded references and the committed BENCH_wallclock.json checksums.
const canonicalSeed = 42

const (
	coldScale = 4096 // cold-run: the paper's out-of-LLC regime
	mixScale  = 1024 // fleet-mix run and misscurve jobs
	seedPool  = 256  // distinct spec seeds per fleet-mix run
)

// mixSchedules are the fleet-mix schedules, each kept for a workload only
// where the algebra finds it legal.
var mixSchedules = []string{"original", "interchanged", "twisted", "stripmine(64)∘twist(flagged)"}

// mixLayouts are the arena layouts fleet-mix run and misscurve jobs use.
var mixLayouts = []string{"buildorder", "schedule", "veb"}

// mixKinds are the four job kinds.
var mixKinds = []string{"run", "misscurve", "transform", "oracle"}

// corpusEntry is one transform source with its committed expected output.
type corpusEntry struct {
	Stem     string // file stem under examples/transform
	Frontend string // "" for a recursion template, "loops" for a loop nest
	Source   string
	Expected string
	// Loose compares ignoring blank lines: the committed looptri output
	// places two blank lines differently from what the daemon generates.
	Loose bool
}

// corpusFiles are the transform sources the mix draws from.
var corpusFiles = []struct {
	stem, frontend string
	loose          bool
}{
	{"join", "", false},
	{"prune", "", false},
	{"loopjoin", "loops", false},
	{"looptri", "loops", true},
}

// loadCorpus reads the transform corpus from the checkout.
func loadCorpus(root string) ([]corpusEntry, error) {
	var out []corpusEntry
	for _, f := range corpusFiles {
		dir := filepath.Join(root, "examples", "transform")
		src, err := os.ReadFile(filepath.Join(dir, f.stem+".go"))
		if err != nil {
			return nil, err
		}
		want, err := os.ReadFile(filepath.Join(dir, f.stem+"_twisted.go"))
		if err != nil {
			return nil, err
		}
		out = append(out, corpusEntry{Stem: f.stem, Frontend: f.frontend,
			Source: string(src), Expected: string(want), Loose: f.loose})
	}
	return out, nil
}

// splitmix is a 64-bit mixer used to derive spec seeds from a run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the k-th spec seed of a run seed: non-negative and
// below 2^31, so it survives any JSON reader.
func deriveSeed(seed int64, k int) int64 {
	return int64(splitmix(uint64(seed)*0x100000001b3+uint64(k)) >> 33)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the specs are plain data
	}
	return b
}

func runJob(w, variant, schedule string, scale int, seed int64, workers int, lay string) job {
	sched := variant + schedule
	return job{
		Kind: "run",
		Body: mustJSON(serve.RunSpec{Workload: w, Variant: variant, Schedule: schedule,
			Scale: scale, Seed: seed, Workers: workers, Layout: lay}),
		Group: fmt.Sprintf("%s/%d/%d", w, scale, seed),
		Match: fmt.Sprintf("%s/%s/%d/%d", w, sched, scale, seed),
		Shape: fmt.Sprintf("run/%s/%s/w%d/%s/%d", w, sched, workers, lay, scale),
	}
}

func missCurveJob(w, schedule string, scale int, seed int64, lay string) job {
	return job{
		Kind:  "misscurve",
		Body:  mustJSON(serve.MissCurveSpec{Workload: w, Schedule: schedule, Scale: scale, Seed: seed, Layout: lay}),
		Match: fmt.Sprintf("%s/%s/%d/%d", w, schedule, scale, seed),
		Shape: fmt.Sprintf("misscurve/%s/%s/%s/%d", w, schedule, lay, scale),
	}
}

func oracleJob(w, schedule string, scale int, seed int64) job {
	return job{Kind: "oracle", Body: mustJSON(serve.OracleSpec{Workload: w, Schedule: schedule, Scale: scale, Seed: seed}),
		Shape: fmt.Sprintf("oracle/%s/%s/%d", w, schedule, scale)}
}

// transformJob asks for every schedule family of a corpus source. The tag
// comment makes each generated request a distinct spec (and so a cold job)
// while leaving the generated source, and so the expected output, as is.
func transformJob(c corpusEntry, tag int64) job {
	src := fmt.Sprintf("%s\n// request %d\n", c.Source, tag)
	return job{Kind: "transform", Body: mustJSON(serve.TransformSpec{Source: src, Frontend: c.Frontend}),
		Corpus: c.Stem, Shape: "transform/" + c.Stem}
}

// refKey names a cold-run spec in the recorded references.
func refKey(w, variant string, workers int) string {
	return fmt.Sprintf("%s/%s/w%d", w, variant, workers)
}

// coldRound returns round r of the cold-run workload: the six paper
// workloads × {original, twisted} × workers {1, 2} at scale 4096, in an
// order shuffled by the seed, all at one spec seed that no other round
// uses. Round 0 runs at the run seed itself, so a run at the canonical
// seed is checked against the references.
func coldRound(seed int64, r int) []job {
	specSeed := seed
	if r > 0 {
		specSeed = deriveSeed(seed, 1_000_000+r)
	}
	var out []job
	for _, w := range workloads.Names() {
		for _, v := range []string{"original", "twisted"} {
			for _, workers := range []int{1, 2} {
				j := runJob(w, v, "", coldScale, specSeed, workers, "")
				if specSeed == canonicalSeed {
					j.Ref = refKey(w, v, workers)
				}
				out = append(out, j)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed) + uint64(r)))))
	rng.Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	for i := range out {
		out[i].Index = r*len(out) + i
	}
	return out
}

// mixBlock is one block of the fleet-mix stream by kind, 40/25/20/15 by
// count. Blocks are shuffled by the seed, and fresh specs cycle through
// every axis combination, so the mix a window sees hardly depends on the
// seed: the seed moves request order and spec seeds, not the composition.
var mixBlock = []string{
	"run", "run", "run", "run", "run", "run", "run", "run",
	"misscurve", "misscurve", "misscurve", "misscurve", "misscurve",
	"transform", "transform", "transform", "transform",
	"oracle", "oracle", "oracle",
}

// mixGen is the fleet-mix request stream. Every second request of a kind
// repeats an earlier spec of that kind, chosen with Zipf-skewed popularity
// so a few specs stay hot. The stream is a pure function of the seed.
type mixGen struct {
	rng    *rand.Rand
	corpus []corpusEntry
	seeds  []int64
	block  []string           // kinds left in the current block
	combos map[string][][]any // fresh-spec axes left per kind
	all    map[string][][]any // every axis combination per kind
	count  map[string]int     // requests of each kind so far
	issued map[string][]job   // fresh specs per kind, in first-issue order
	seen   map[string]bool    // kind+body of every spec generated so far
	mirror int                // runs mirrored by a misscurve so far
	n      int
}

func newMixGen(seed int64, corpus []corpusEntry) (*mixGen, error) {
	g := &mixGen{
		rng:    rand.New(rand.NewSource(seed)),
		corpus: corpus,
		combos: map[string][][]any{},
		all:    map[string][][]any{},
		count:  map[string]int{},
		issued: map[string][]job{},
		seen:   map[string]bool{},
	}
	for k := 0; k < seedPool; k++ {
		g.seeds = append(g.seeds, deriveSeed(seed, k))
	}
	for _, w := range workloads.Names() {
		irregular, err := workloads.Irregular(w)
		if err != nil {
			return nil, err
		}
		for _, expr := range mixSchedules {
			s, err := algebra.ParseSchedule(expr)
			if err != nil {
				return nil, err
			}
			if s.Check(algebra.ForNest(irregular)) != nil {
				continue
			}
			for _, lay := range mixLayouts {
				g.all["run"] = append(g.all["run"], []any{w, expr, lay})
			}
			for _, scale := range []int{256, 512} {
				g.all["oracle"] = append(g.all["oracle"], []any{w, expr, scale})
			}
		}
	}
	for k := range corpus {
		g.all["transform"] = append(g.all["transform"], []any{k})
	}
	return g, nil
}

// axes returns the next fresh-spec axis combination of kind, cycling
// through all of them in an order the seed shuffles.
func (g *mixGen) axes(kind string) []any {
	if len(g.combos[kind]) == 0 {
		c := append([][]any(nil), g.all[kind]...)
		g.rng.Shuffle(len(c), func(i, k int) { c[i], c[k] = c[k], c[i] })
		g.combos[kind] = c
	}
	a := g.combos[kind][0]
	g.combos[kind] = g.combos[kind][1:]
	return a
}

// next returns the next request of the stream.
func (g *mixGen) next() job {
	if len(g.block) == 0 {
		g.block = append([]string(nil), mixBlock...)
		g.rng.Shuffle(len(g.block), func(i, k int) { g.block[i], g.block[k] = g.block[k], g.block[i] })
	}
	if g.block[0] == "misscurve" && len(g.issued["run"]) == 0 {
		// A misscurve mirrors an earlier run, so a run goes first.
		for i, k := range g.block {
			if k == "run" {
				g.block[0], g.block[i] = g.block[i], g.block[0]
				break
			}
		}
	}
	kind := g.block[0]
	g.block = g.block[1:]
	g.count[kind]++
	var j job
	if prev := g.issued[kind]; len(prev) > 0 && g.count[kind]%2 == 0 {
		z := rand.NewZipf(g.rng, 1.1, 1, uint64(len(prev)-1))
		j = prev[z.Uint64()]
	} else {
		j = g.fresh(kind)
		if !g.seen[kind+string(j.Body)] {
			g.issued[kind] = append(g.issued[kind], j)
		}
	}
	j.Repeat = g.seen[kind+string(j.Body)]
	g.seen[kind+string(j.Body)] = true
	j.Index = g.n
	g.n++
	return j
}

// fresh draws a new spec of kind. A misscurve mirrors the axes of an
// earlier run, the oldest not mirrored yet, so its access count can be
// checked against that run's.
func (g *mixGen) fresh(kind string) job {
	seed := g.seeds[g.rng.Intn(len(g.seeds))]
	switch kind {
	case "run":
		a := g.axes(kind)
		return runJob(a[0].(string), "", a[1].(string), mixScale, seed, 0, a[2].(string))
	case "misscurve":
		runs := g.issued["run"]
		var r serve.RunSpec
		err := json.Unmarshal(runs[g.mirror%len(runs)].Body, &r)
		g.mirror++
		if err != nil {
			panic(err) // the generator wrote this body
		}
		return missCurveJob(r.Workload, r.Schedule, mixScale, r.Seed, r.Layout)
	case "transform":
		return transformJob(g.corpus[g.axes(kind)[0].(int)], g.rng.Int63())
	default:
		a := g.axes(kind)
		return oracleJob(a[0].(string), a[1].(string), a[2].(int), seed)
	}
}

// coldProbes interleaves small requests into the cold-run stream, after
// every cold run, so that every end-to-end metric has samples on cold-run
// too, spread over the whole window rather than bunched at one end: hits
// on the runs already answered, two cold transform and two cold oracle
// jobs, and a cold misscurve. Misscurves come in pairs over one instance,
// under the build-order and the veb layout, and the first of a pair is
// followed by the run twin both are checked against: the layout moves
// addresses, not how many there are. The one client still waits for each
// answer, so no probe overlaps a cold run.
type coldProbes struct {
	seed   int64
	corpus []corpusEntry
	served []job // cold runs answered so far
	k      int   // cold runs so far
}

// probeHitsPerRun is how many hits follow each cold run.
const probeHitsPerRun = 80

func (p *coldProbes) after(run job) []job {
	p.served = append(p.served, run)
	var out []job
	for h := 0; h < probeHitsPerRun; h++ {
		out = append(out, p.served[(p.k*probeHitsPerRun+h)%len(p.served)])
	}
	names := workloads.Names()
	for i := 2 * p.k; i < 2*p.k+2; i++ {
		out = append(out,
			transformJob(p.corpus[i%len(p.corpus)], deriveSeed(p.seed, 3_000_000+i)),
			oracleJob(names[i%len(names)], mixSchedules[i/len(names)%len(mixSchedules)], 256, deriveSeed(p.seed, 4_000_000+i)))
	}
	pair := p.k / 2
	w, v := names[pair%len(names)], []string{"original", "twisted"}[pair/len(names)%2]
	seed := deriveSeed(p.seed, 2_000_000+pair)
	if p.k%2 == 0 {
		out = append(out, missCurveJob(w, v, mixScale, seed, ""), runJob(w, "", v, mixScale, seed, 0, ""))
	} else {
		out = append(out, missCurveJob(w, v, mixScale, seed, "veb"))
	}
	p.k++
	for i := range out {
		out[i].Index = -1 // probes are not part of the seeded cold sequence
		out[i].Probe = true
	}
	return out
}

// blankless drops blank lines, for the loose corpus comparison.
func blankless(s string) string {
	var b strings.Builder
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
