package detector

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// snapshotWorkload builds a running reconstruction-mode pipeline (the
// detectd configuration) tracking the given number of accounts, fed
// from a synthetic request/accept stream.
func snapshotWorkload(b *testing.B, accounts int) *Pipeline {
	b.Helper()
	r := stats.NewRand(int64(accounts))
	p := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithCheckEvery(4))
	const chunk = 256
	evs := make([]osn.Event, 0, chunk)
	flush := func() {
		p.Ingest(Batch{Events: evs})
		evs = evs[:0]
	}
	at := sim.Time(0)
	for a := 0; a < accounts; a++ {
		for k := 0; k < 3; k++ {
			tgt := osn.AccountID(r.Intn(accounts))
			if int(tgt) == a {
				tgt = osn.AccountID((a + 1) % accounts)
			}
			at++
			evs = append(evs, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: osn.AccountID(a), Target: tgt})
			if r.Bernoulli(0.5) {
				evs = append(evs, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: tgt, Target: osn.AccountID(a)})
			}
			if len(evs) >= chunk {
				flush()
			}
		}
	}
	flush()
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
