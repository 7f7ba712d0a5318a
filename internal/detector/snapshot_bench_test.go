package detector

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"sybilwild/internal/campaign"
)

// snapshotWorkload is a reconstruction-mode pipeline (the detectd
// configuration) fed three rounds of the burst campaign over accounts.
func snapshotWorkload(b *testing.B, accounts int) *Pipeline {
	b.Helper()
	p := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithCheckEvery(4))
	feedChunks(p, campaign.Burst(int64(accounts), accounts, 3), 256)
	return p
}

// BenchmarkSnapshot measures the serialization cost of a
// consistent pipeline snapshot as account count grows, and reports
// the serialized checkpoint size — the latency a checkpointing
// detectd pays per interval and the bytes it writes.
func BenchmarkSnapshot(b *testing.B) {
	for _, accounts := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			p := snapshotWorkload(b, accounts)
			defer p.Close()
			b.ResetTimer()
			var snap *PipelineSnapshot
			for i := 0; i < b.N; i++ {
				snap = p.Snapshot()
			}
			b.StopTimer()
			data, err := json.Marshal(snap)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data)), "snapshot_bytes")
			b.ReportMetric(float64(len(data))/float64(len(snap.Accounts)), "bytes/account")
		})
	}
}

// BenchmarkRestore measures the other side of a handoff: building a
// running pipeline from a 100k-account snapshot, which is mostly the
// graph.FromSnapshot rebuild. A live-rebalance cutover restores K'
// such pipelines (accepts replicate to every partition, so each holds
// the whole graph), so this is the denominator make bench-gate holds
// BenchmarkLiveRebalance against.
func BenchmarkRestore(b *testing.B) {
	const accounts = 100_000
	b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
		p := snapshotWorkload(b, accounts)
		snap := p.Snapshot()
		p.Close()
		runtime.GC() // the workload's garbage is not the restore's cost
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			np, _, err := NewPipelineFromSnapshot(PaperRule(), nil, snap)
			if err != nil {
				b.Fatal(err)
			}
			np.Close()
		}
	})
}
