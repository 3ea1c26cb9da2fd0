package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// reference is the recorded deterministic outcome of one cold-run spec at
// the canonical seed.
type reference struct {
	Checksum   string  `json:"checksum"`
	Iterations int64   `json:"iterations"`
	Accesses   int64   `json:"accesses"`
	L2MissRate float64 `json:"l2_miss_rate"`
	L3MissRate float64 `json:"l3_miss_rate"`
}

// runResult is the part of a run job's result the checks read.
type runResult struct {
	Workload string `json:"workload"`
	Checksum string `json:"checksum"`
	Stats    struct {
		Iterations int64
	} `json:"stats"`
	MissRates []struct {
		Level    string  `json:"level"`
		Accesses int64   `json:"accesses"`
		Misses   int64   `json:"misses"`
		Rate     float64 `json:"rate"`
	} `json:"miss_rates"`
}

func (r *runResult) reference() reference {
	ref := reference{Checksum: r.Checksum, Iterations: r.Stats.Iterations}
	for _, m := range r.MissRates {
		switch m.Level {
		case "L1":
			ref.Accesses = m.Accesses
		case "L2":
			ref.L2MissRate = m.Rate
		case "L3":
			ref.L3MissRate = m.Rate
		}
	}
	return ref
}

// checker verifies every response. It is shared by the client goroutines.
type checker struct {
	refs      map[string]reference // cold-run references at the canonical seed
	wallclock map[string]string    // workload → BENCH_wallclock.json checksum
	corpus    []corpusEntry
	record    bool // collect references instead of checking them

	mu        sync.Mutex
	groups    map[string]string  // run group → first checksum
	accesses  map[string]int64   // run match → L1 accesses
	pending   map[string][]int64 // run match → misscurve accesses awaiting their run
	bodies    map[string][]byte  // digest → first result bytes
	recorded  map[string]reference
	looseOnly map[string]bool // corpus stems equal only ignoring blank lines
}

// loadChecker reads the references, the committed wallclock checksums and
// the transform corpus: the reference loading that setup_s includes.
func loadChecker(root string, record bool) (*checker, error) {
	c := &checker{
		refs: map[string]reference{}, wallclock: map[string]string{},
		record: record, groups: map[string]string{}, accesses: map[string]int64{},
		pending: map[string][]int64{}, bodies: map[string][]byte{},
		recorded: map[string]reference{}, looseOnly: map[string]bool{},
	}
	if !record {
		b, err := os.ReadFile(filepath.Join(root, "twistbench", "reference.json"))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &c.refs); err != nil {
			return nil, fmt.Errorf("reference.json: %w", err)
		}
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCH_wallclock.json"))
	if err != nil {
		return nil, err
	}
	var wall struct {
		Params map[string]string `json:"params"`
		Rows   []struct {
			Name string            `json:"name"`
			Det  map[string]string `json:"det"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &wall); err != nil {
		return nil, fmt.Errorf("BENCH_wallclock.json: %w", err)
	}
	if wall.Params["scale"] != fmt.Sprint(coldScale) || wall.Params["seed"] != fmt.Sprint(canonicalSeed) {
		return nil, fmt.Errorf("BENCH_wallclock.json: params %v, want scale %d seed %d", wall.Params, coldScale, canonicalSeed)
	}
	for _, r := range wall.Rows {
		c.wallclock[r.Name] = r.Det["checksum"]
	}
	c.corpus, err = loadCorpus(root)
	return c, err
}

// check verifies one successful response and returns the mismatch, if any.
func (c *checker) check(s *sample) error {
	e := s.Env
	if e.Kind != s.Job.Kind || e.Digest == "" {
		return fmt.Errorf("envelope kind %q digest %q for a %s job", e.Kind, e.Digest, s.Job.Kind)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.bodies[e.Digest]; !ok {
		c.bodies[e.Digest] = append([]byte(nil), e.Result...)
	} else if !bytes.Equal(first, e.Result) {
		return fmt.Errorf("%s %s: result bytes differ from the first body for the digest", s.Class, e.Digest[:12])
	}
	switch s.Job.Kind {
	case "run":
		return c.checkRun(s.Job, e.Result)
	case "misscurve":
		var r struct {
			Accesses int64 `json:"accesses"`
		}
		if err := json.Unmarshal(e.Result, &r); err != nil {
			return err
		}
		if want, ok := c.accesses[s.Job.Match]; ok {
			if r.Accesses != want {
				return fmt.Errorf("misscurve %s: %d accesses, its run twin made %d", s.Job.Match, r.Accesses, want)
			}
			return nil
		}
		c.pending[s.Job.Match] = append(c.pending[s.Job.Match], r.Accesses)
	case "transform":
		var r struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(e.Result, &r); err != nil {
			return err
		}
		var want corpusEntry
		for _, e := range c.corpus {
			if e.Stem == s.Job.Corpus {
				want = e
			}
		}
		switch {
		case r.Source == want.Expected:
		case want.Loose && blankless(r.Source) == blankless(want.Expected):
			c.looseOnly[want.Stem] = true
		default:
			return fmt.Errorf("transform %s: source differs from examples/transform/%s_twisted.go", want.Stem, want.Stem)
		}
	case "oracle":
		var r struct {
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal(e.Result, &r); err != nil {
			return err
		}
		if !r.OK {
			return fmt.Errorf("oracle: %s", r.Detail)
		}
	}
	return nil
}

// checkRun holds a run's checksum to its group, records its access count
// for misscurve twins, and compares canonical-seed specs to the references.
func (c *checker) checkRun(j job, raw json.RawMessage) error {
	var r runResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	if first, ok := c.groups[j.Group]; !ok {
		c.groups[j.Group] = r.Checksum
	} else if first != r.Checksum {
		return fmt.Errorf("run %s: checksum %s, another schedule of the same instance gave %s", j.Group, r.Checksum, first)
	}
	ref := r.reference()
	c.accesses[j.Match] = ref.Accesses
	for _, got := range c.pending[j.Match] {
		if got != ref.Accesses {
			return fmt.Errorf("misscurve %s: %d accesses, its run twin made %d", j.Match, got, ref.Accesses)
		}
	}
	delete(c.pending, j.Match)
	if j.Ref == "" {
		return nil
	}
	if want := c.wallclock[r.Workload]; r.Checksum != want {
		return fmt.Errorf("run %s: checksum %s, BENCH_wallclock.json has %s", j.Ref, r.Checksum, want)
	}
	if c.record {
		c.recorded[j.Ref] = ref
		return nil
	}
	want, ok := c.refs[j.Ref]
	if !ok {
		return fmt.Errorf("run %s: no recorded reference", j.Ref)
	}
	if ref != want {
		return fmt.Errorf("run %s: got %+v, reference %+v", j.Ref, ref, want)
	}
	return nil
}

// unmatched counts misscurve answers whose run twin never answered.
func (c *checker) unmatched() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.pending {
		n += len(v)
	}
	return n
}

// looseStems lists the corpus entries accepted only ignoring blank lines.
func (c *checker) looseStems() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for s := range c.looseOnly {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// writeReferences stores the recorded canonical-seed outcomes.
func (c *checker) writeReferences(path string) error {
	b, err := json.MarshalIndent(c.recorded, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
