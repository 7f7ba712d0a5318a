package spool

import (
	"errors"
	"io"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

// BenchmarkSpoolAppend measures the disk tier's ingest cost in the
// shape Broadcast produces: one single-event batch per append,
// buffered writes, fsync only on segment roll.
func BenchmarkSpoolAppend(b *testing.B) {
	sp, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	ev := [1]osn.Event{{Type: osn.EvFriendRequest, At: 1, Actor: 2, Target: 3}}
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = wire.AppendBatch(frame[:0], uint64(i)+1, ev[:])
		if _, err := sp.AppendFrame(uint64(i)+1, 1, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	st := sp.Stats()
	b.ReportMetric(float64(st.Bytes)/float64(b.N), "B/event")
}

// BenchmarkSpoolRead measures raw segment replay: a spooled log read
// back frame by frame and decoded, the storage-layer cost under
// BenchmarkResumeFromDisk's end-to-end number.
func BenchmarkSpoolRead(b *testing.B) {
	sp, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	ev := [1]osn.Event{{Type: osn.EvFriendRequest, At: 1, Actor: 2, Target: 3}}
	var frame []byte
	for i := 0; i < b.N; i++ {
		frame = wire.AppendBatch(frame[:0], uint64(i)+1, ev[:])
		if _, err := sp.AppendFrame(uint64(i)+1, 1, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	rd, err := sp.ReadFrom(1)
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	var buf []osn.Event
	total := 0
	for {
		_, _, payload, err := rd.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		_, evs, ok := wire.ParseBatch(payload, buf[:0])
		if !ok {
			b.Fatal("corrupt frame")
		}
		total += len(evs)
		buf = evs[:0]
	}
	b.StopTimer()
	if total != b.N {
		b.Fatalf("read %d events, want %d", total, b.N)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
