package serve

import (
	"context"
	"testing"

	"twist/internal/workloads"
)

// BenchmarkMissCurveJob times in-process misscurve jobs on the 24 shapes the
// cold-run workload of twistbench posts: the six workloads × original and
// twisted × the build-order and veb layouts, at scale 1024. Its ns/access
// metric (job wall time over traced accesses) is the reuse-distance layer's
// time signal:
//
//	go test ./internal/serve -run '^$' -bench MissCurveJob -benchtime 5x
func BenchmarkMissCurveJob(b *testing.B) {
	for _, w := range workloads.Names() {
		for _, v := range []string{"original", "twisted"} {
			for _, lay := range []string{"buildorder", "veb"} {
				b.Run(w+"/"+v+"/"+lay, func(b *testing.B) {
					var accesses int64
					for n := 0; n < b.N; n++ {
						spec := MissCurveSpec{Workload: w, Variant: v, Scale: 1024, Seed: 42, Layout: lay}
						res, err := MissCurveJob(context.Background(), &spec)
						if err != nil {
							b.Fatal(err)
						}
						accesses += res.Accesses
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
				})
			}
		}
	}
}
