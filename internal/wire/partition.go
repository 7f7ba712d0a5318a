// Codec additions for the partitioned cluster: the fbatch frame (a
// filtered batch — the downstream form sent to partitioned subscribers,
// where delivered sequences are sparse in the global order), the
// partition view that builds one from a batch frame, and the bound on
// the raw snapshot frame a detector.PipelineSnapshot moves in between
// workers and the broker (its snap header is a control frame,
// internal/stream).

package wire

import (
	"slices"

	"sybilwild/internal/osn"
)

// MaxSnapshotSize bounds a snapshot payload announced by a snap
// header. Snapshots are one frame pair per partition, not a stream,
// so the bound is generous — it exists to reject corrupt headers, not
// to size buffers.
const MaxSnapshotSize = 1 << 30

// AppendFBatch appends the filtered-batch payload to dst: events[i] is
// led by its global sequence seqs[i], and last is the feed cursor the
// frame advances the subscriber to (last >= every event sequence in the
// frame; with no events at all the frame is a pure cursor advance past
// filtered-out foreign events). len(seqs) must equal len(events).
func AppendFBatch(dst []byte, last uint64, seqs []uint64, events []osn.Event) []byte {
	dst, recs := grow(dst, tagFBatch, last, len(events), seqRecordSize)
	for i, ev := range events {
		r := recs[i*seqRecordSize:]
		le.PutUint64(r, seqs[i])
		putEvent(r[8:], ev)
	}
	return dst
}

// ParseFBatch decodes a filtered-batch payload, appending events to
// dstEvs and their global sequences (parallel, same length) to dstSeqs.
// Like ParseBatch it accepts exactly what its encoder (AppendFBatch)
// emits and reports !ok on anything else.
func ParseFBatch(payload []byte, dstEvs []osn.Event, dstSeqs []uint64) (last uint64, evs []osn.Event, seqs []uint64, ok bool) {
	last, n, ok := header(payload, tagFBatch, seqRecordSize)
	if !ok {
		return 0, dstEvs, dstSeqs, false
	}
	evs, seqs = slices.Grow(dstEvs, n), slices.Grow(dstSeqs, n)
	for off := headerSize; off < len(payload); off += seqRecordSize {
		ev, ok := event(payload[off+8:], feedTypes)
		if !ok {
			return 0, dstEvs, dstSeqs, false
		}
		evs = append(evs, ev)
		seqs = append(seqs, le.Uint64(payload[off:]))
	}
	return last, evs, seqs, true
}

// Owned appends to own the positions, ascending, of the events in batch
// payload src that partition part of parts receives
// (osn.PartitionDelivers). src must be a payload ParseBatchBounds
// accepted.
func Owned(own []int, src []byte, part, parts int) []int {
	for k, off := 0, headerSize; off+recordSize <= len(src); k, off = k+1, off+recordSize {
		r := src[off : off+recordSize]
		ev := osn.Event{Type: osn.EventType(r[0]), Actor: osn.AccountID(le.Uint32(r[9:])), Target: osn.AccountID(le.Uint32(r[13:]))}
		if osn.PartitionDelivers(ev, part, parts) {
			own = append(own, k)
		}
	}
	return own
}

// SpliceFBatch appends to dst a partition's view of batch payload src:
// the filtered-batch payload carrying cursor last and the events at
// positions own (ascending, from Owned), each led by its sequence —
// src's first sequence plus its position. The result is what
// AppendFBatch emits for the same events, built with one copy per
// event. Splicing onto nil makes one allocation, sized for the payload.
func SpliceFBatch(dst []byte, last uint64, src []byte, own []int) []byte {
	first := le.Uint64(src[1:])
	dst, recs := grow(dst, tagFBatch, last, len(own), seqRecordSize)
	for i, k := range own {
		r := recs[i*seqRecordSize : (i+1)*seqRecordSize]
		le.PutUint64(r, first+uint64(k))
		copy(r[8:], src[headerSize+k*recordSize:])
	}
	return dst
}
