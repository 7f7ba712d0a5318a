package detector

import (
	"runtime"
	"testing"

	"sybilwild/internal/campaign"
	"sybilwild/internal/osn"
)

// ingestPartitioned runs one detector-direct repetition on the calling
// goroutine: each slice into a fresh partition-gated reconstruction
// pipeline (slice w is partition w of len(slices)), in chunk-event
// Ingest calls. It returns the number of accounts flagged in total.
func ingestPartitioned(slices [][]osn.Event, chunk int) (flagged int) {
	for w, evs := range slices {
		p := NewPipeline(PaperRule(), nil, WithGraphReconstruction(), WithPartition(w, len(slices)))
		for lo := 0; lo < len(evs); lo += chunk {
			p.Ingest(Batch{Events: evs[lo:min(lo+chunk, len(evs))]})
		}
		p.Close()
		flagged += p.FlaggedCount()
	}
	return flagged
}

// partitionSlices splits events into the K slices osn.PartitionDelivers
// sends to the partitions of a K-worker cluster.
func partitionSlices(events []osn.Event, K int) [][]osn.Event {
	slices := make([][]osn.Event, K)
	for w := range slices {
		slices[w] = partitionSlice(events, w, K)
	}
	return slices
}

// BenchmarkIngest is the path a partitioned worker runs, without the
// sockets: a 100k-account burst campaign split into K=2 partition
// slices, each ingested by a fresh WithPartition +
// WithGraphReconstruction pipeline in 256-event chunks, one pipeline
// after the other. One op is the whole feed; ns/ev and B/ev are per
// feed event. `make profile` profiles it.
func BenchmarkIngest(b *testing.B) {
	const K, chunk = 2, 256
	events := campaign.Burst(7, 100_000, 10)
	slices := partitionSlices(events, K)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, want := ingestPartitioned(slices, chunk), 100_000/50; got != want {
			b.Fatalf("flagged %d accounts, want the %d Sybils", got, want)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/ev")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/ev")
}
