package wire

import (
	"testing"

	"sybilwild/internal/campaign"
	"sybilwild/internal/osn"
)

// The codec's hot calls on one 256-event chunk of the burst campaign
// among 100k accounts (internal/campaign). Each reports ns/ev.
// The root splices every pbatch into batch frames; a relay checks
// every adopted frame once and splices one fbatch view per partition;
// a worker parses its views.

const benchChunk = 256

// benchFirst is a feed position the size of a sybilbench run's.
const benchFirst = 1_000_001

func reportPerEvent(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/ev")
}

func BenchmarkParseBatch(b *testing.B) {
	payload := AppendBatch(nil, benchFirst, campaign.Burst(7, 100_000, 1)[:benchChunk])
	evs := make([]osn.Event, 0, benchChunk)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, evs, _ = ParseBatch(payload, evs[:0]); len(evs) != benchChunk {
			b.Fatal("rejected its own encoder's frame")
		}
	}
	reportPerEvent(b, benchChunk)
}

func BenchmarkParseFBatch(b *testing.B) {
	all := campaign.Burst(7, 100_000, 1)[:benchChunk]
	var seqs []uint64
	var keep []osn.Event
	for k, ev := range all {
		if osn.PartitionDelivers(ev, 0, 2) {
			seqs = append(seqs, benchFirst+uint64(k))
			keep = append(keep, ev)
		}
	}
	payload := AppendFBatch(nil, benchFirst+benchChunk-1, seqs, keep)
	evs := make([]osn.Event, 0, len(keep))
	seqbuf := make([]uint64, 0, len(keep))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, evs, seqbuf, _ = ParseFBatch(payload, evs[:0], seqbuf[:0]); len(evs) != len(keep) {
			b.Fatal("rejected its own encoder's frame")
		}
	}
	reportPerEvent(b, len(keep))
}

// BenchmarkSplicePBatch is the root's work per pbatch: check it, then
// splice its events under a batch header into a fresh payload.
func BenchmarkSplicePBatch(b *testing.B) {
	payload := AppendPBatch(nil, 9, campaign.Burst(7, 100_000, 1)[:benchChunk])
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, ok := ParsePBatchBounds(payload)
		if !ok {
			b.Fatal("rejected its own encoder's frame")
		}
		benchSink = SpliceBatch(nil, benchFirst, payload, 0, n)
	}
	reportPerEvent(b, benchChunk)
}

// BenchmarkPartitionView is a relay's work per adopted frame at K=2:
// check it once, then splice each partition's fbatch view into a fresh
// payload.
func BenchmarkPartitionView(b *testing.B) {
	const K = 2
	payload := AppendBatch(nil, benchFirst, campaign.Burst(7, 100_000, 1)[:benchChunk])
	own := make([]int, 0, benchChunk)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ParseBatchBounds(payload); !ok {
			b.Fatal("rejected its own encoder's frame")
		}
		for part := 0; part < K; part++ {
			own = Owned(own[:0], payload, part, K)
			benchSink = SpliceFBatch(nil, benchFirst+benchChunk-1, payload, own)
		}
	}
	reportPerEvent(b, benchChunk)
}

var benchSink []byte
