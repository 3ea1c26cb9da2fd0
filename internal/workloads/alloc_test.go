package workloads

import (
	"testing"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
)

// runSinkSetupAllocs bounds what tracing may add to a run as a whole: the
// sink's emit method value, the layout's rewriting closure, the traced
// Work wrapper. None of it depends on the number of visits.
const runSinkSetupAllocs = 8

// TestRunSinkAllocsPerVisit holds the traced pass at zero allocations per
// visit, for every workload under each layout a run job measures with.
// RunSink may allocate at most runSinkSetupAllocs more than the untraced
// RunSeq of the same instance, while the runs make thousands of visits. It
// runs serially: AllocsPerRun reads the process-wide malloc count.
func TestRunSinkAllocsPerVisit(t *testing.T) {
	const scale, seed = 256, 3
	v := nest.Twisted()
	for _, name := range Names() {
		in, err := ByName(name, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []layout.Kind{layout.BuildOrder, layout.Schedule, layout.VEB} {
			lin, err := in.UnderLayout(kind, v)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kind, err)
			}
			sink := memsim.NewStream(discard{}, 0).Sink()
			var visits int64
			traced := testing.AllocsPerRun(3, func() {
				st, _, _ := lin.RunSink(nil, v, sink, nil)
				visits = st.Work
			})
			plain := testing.AllocsPerRun(3, func() { lin.RunSeq(nil, v, nil) })
			if visits < 200*runSinkSetupAllocs {
				t.Fatalf("%s/%v: %d visits are too few to tell per-visit from per-run allocations", name, kind, visits)
			}
			if extra := traced - plain; extra > runSinkSetupAllocs {
				t.Errorf("%s/%v: RunSink allocated %.0f more than RunSeq over %d visits (%.3f per visit), want at most %d per run",
					name, kind, extra, visits, extra/float64(visits), runSinkSetupAllocs)
			}
		}
	}
}

// discard is a Simulator that drops every access, so the allocation count
// is RunSink's own and not the simulator pipeline's.
type discard struct{}

func (discard) Access(memsim.Addr)           {}
func (discard) AccessBatch([]memsim.Addr)    {}
func (discard) Stats() []memsim.LevelStats   { return nil }
func (discard) Reset()                       {}
func (discard) ResetStats()                  {}
func (discard) Publish(obs.Recorder, string) {}
func (discard) Close()                       {}
