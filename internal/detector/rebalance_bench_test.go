package detector

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkLiveRebalance measures the state-surgery half of a live
// cutover's pause at detectd scale: re-keying a 100k-account
// campaign's K partition snapshots into K' and restoring the K' new
// pipelines, ready to subscribe from barrier+1. The feed itself never
// pauses during a live rebalance — events past the cutover record
// buffer at the broker — so this number bounds how long the new owners
// lag the barrier, reported as ms/cutover. The snapshot capture side of
// the pause is BenchmarkSnapshot; the K=3→5 and 4→2 shapes mirror the
// E2E.
func BenchmarkLiveRebalance(b *testing.B) {
	for _, c := range []struct{ from, to int }{{3, 5}, {4, 2}} {
		b.Run(fmt.Sprintf("k=%dto%d", c.from, c.to), func(b *testing.B) {
			p := snapshotWorkload(b, 100_000)
			defer p.Close()
			base := p.Snapshot()
			srcs, err := RebalanceSnapshots([]*PipelineSnapshot{base}, c.from)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // the workload's garbage is not the cutover's cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := RebalanceSnapshots(srcs, c.to)
				if err != nil {
					b.Fatal(err)
				}
				for _, snap := range out {
					np, _, err := NewPipelineFromSnapshot(PaperRule(), nil, snap)
					if err != nil {
						b.Fatal(err)
					}
					np.Close()
				}
			}
			b.StopTimer()
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/cutover")
		})
	}
}
