// Codec additions for the partitioned cluster: the "fbatch" frame (a
// filtered batch — the downstream form sent to partitioned
// subscribers, where delivered sequences are sparse in the global
// order) and the snapshot frame pair (a "snap" header followed by a
// raw payload) that moves detector.PipelineSnapshot between workers
// and the broker.

package wire

import (
	"math"
	"strconv"

	"sybilwild/internal/osn"
)

// MaxSnapshotSize bounds a snapshot payload announced by a snap
// header. Snapshots are one frame pair per partition, not a stream,
// so the bound is generous — it exists to reject corrupt headers, not
// to size buffers.
const MaxSnapshotSize = 1 << 30

// Canonical fbatch prefix. A filtered batch carries per-event global
// sequences (the partition's slice of the feed is sparse, so a single
// first-sequence cannot describe it) plus "last", the cursor the
// subscriber has provably seen through: last >= every event sequence
// in the frame, and an fbatch with no events at all is a pure cursor
// advance past filtered-out foreign events.
//
//	{"t":"fbatch","last":L,"events":[{"seq":N,"type":"...","at":T,"actor":A,"target":B,"aux":X},...]}
const fbatchPrefix = `{"t":"fbatch","last":`

// AppendFBatch appends the canonical filtered-batch payload to dst:
// events[i] is stamped with global sequence seqs[i], and last is the
// feed cursor the frame advances the subscriber to. len(seqs) must
// equal len(events).
func AppendFBatch(dst []byte, last uint64, seqs []uint64, events []osn.Event) []byte {
	dst = append(dst, fbatchPrefix...)
	dst = strconv.AppendUint(dst, last, 10)
	dst = append(dst, eventsOpen...)
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendUint(dst, seqs[i], 10)
		dst = append(dst, `,"type":"`...)
		dst = append(dst, ev.Type.String()...)
		dst = append(dst, `","at":`...)
		dst = strconv.AppendInt(dst, ev.At, 10)
		dst = append(dst, `,"actor":`...)
		dst = strconv.AppendInt(dst, int64(int32(ev.Actor)), 10)
		dst = append(dst, `,"target":`...)
		dst = strconv.AppendInt(dst, int64(int32(ev.Target)), 10)
		if ev.Aux != 0 {
			dst = append(dst, `,"aux":`...)
			dst = strconv.AppendInt(dst, int64(ev.Aux), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, eventsClose...)
}

// FBatchEventsSection returns the byte range of a canonical
// filtered-batch payload holding the comma-separated event objects
// (empty for a pure cursor advance), aliasing payload. Because events
// carry their own "seq" fields, the sections of consecutive fbatch
// frames splice with ',' under a fresh prefix carrying the final
// frame's cursor into a payload byte-identical to a single AppendFBatch
// over the concatenated events — the fbatch analogue of
// BatchEventsSection. ok is false when payload is not a canonical
// fbatch.
func FBatchEventsSection(payload []byte) ([]byte, bool) {
	_, sec, ok := eventsSection(payload, fbatchPrefix)
	return sec, ok
}

// ParseFBatch decodes a canonical filtered-batch payload, appending
// events to dstEvs and their global sequences (parallel, same length)
// to dstSeqs. Like ParseBatch it accepts exactly what its encoder
// (AppendFBatch) emits; ok is false on any deviation, and transport
// callers then fall back to encoding/json.
func ParseFBatch(payload []byte, dstEvs []osn.Event, dstSeqs []uint64) (last uint64, evs []osn.Event, seqs []uint64, ok bool) {
	s := scanner{b: payload}
	last, ok = s.head(fbatchPrefix)
	if !ok {
		return 0, dstEvs, dstSeqs, false
	}
	evs, seqs = dstEvs, dstSeqs
	var ev osn.Event
	for n := 0; !s.lit(eventsClose); n++ {
		if n > 0 && !s.lit(",") || !s.lit(`{"seq":`) {
			return 0, dstEvs, dstSeqs, false
		}
		seq, ok := s.uint()
		if !ok || !s.lit(`,"type":"`) || !s.event(&ev) {
			return 0, dstEvs, dstSeqs, false
		}
		evs = append(evs, ev)
		seqs = append(seqs, seq)
	}
	if s.i != len(payload) {
		return 0, dstEvs, dstSeqs, false
	}
	return last, evs, seqs, true
}

// SpliceFBatch appends to dst a partition's view of a batch indexed in
// src (IndexBatch, first sequence first): the canonical filtered-batch
// payload carrying cursor last and the events refs[k] for each k in own
// (ascending), each written as `{"seq":N,` followed by the event's own
// bytes after its '{', N = first+k. The result is what AppendFBatch
// emits for the same events. Splicing onto nil makes one allocation,
// sized for the payload.
func SpliceFBatch(dst []byte, last uint64, src []byte, first uint64, refs []EventRef, own []int) []byte {
	const seqKey = `{"seq":`
	if dst == nil {
		size := len(fbatchPrefix) + uintLen(last) + len(eventsOpen) + len(eventsClose)
		for i, k := range own {
			// `{"seq":N,` + the event after its '{' (and a ',' before all
			// but the first).
			size += len(seqKey) + uintLen(first+uint64(k)) + refs[k].End - refs[k].Start + min(i, 1)
		}
		dst = make([]byte, 0, size)
	}
	dst = append(dst, fbatchPrefix...)
	dst = strconv.AppendUint(dst, last, 10)
	dst = append(dst, eventsOpen...)
	for i, k := range own {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, seqKey...)
		dst = strconv.AppendUint(dst, first+uint64(k), 10)
		dst = append(dst, ',')
		dst = append(dst, src[refs[k].Start+1:refs[k].End]...)
	}
	return append(dst, eventsClose...)
}

// SnapHeader announces a snapshot payload: which partition it covers,
// the feed sequence the snapshot is stamped at (a worker restored
// from it resumes at Seq+1), and the byte length of the raw payload
// frame that follows.
type SnapHeader struct {
	Part  int
	Parts int
	Seq   uint64
	Size  uint64
}

// Canonical snap-header prefix. The snapshot frame pair is this
// header followed by one raw (non-JSON) frame of exactly Size bytes
// holding the serialized detector.PipelineSnapshot.
//
//	{"t":"snap","part":P,"parts":K,"seq":S,"size":B}
const snapPrefix = `{"t":"snap","part":`

// AppendSnapHeader appends the canonical snapshot header payload.
func AppendSnapHeader(dst []byte, h SnapHeader) []byte {
	dst = append(dst, snapPrefix...)
	dst = strconv.AppendInt(dst, int64(h.Part), 10)
	dst = append(dst, `,"parts":`...)
	dst = strconv.AppendInt(dst, int64(h.Parts), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, h.Seq, 10)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendUint(dst, h.Size, 10)
	return append(dst, '}')
}

// ParseSnapHeader decodes a canonical snapshot header. ok is false on
// any deviation (including a Size beyond MaxSnapshotSize, which a
// reader must treat as corruption rather than allocate for).
func ParseSnapHeader(payload []byte) (h SnapHeader, ok bool) {
	s := scanner{b: payload}
	if !s.lit(snapPrefix) {
		return SnapHeader{}, false
	}
	part, pOK := s.int(math.MaxInt64)
	if !pOK || !s.lit(`,"parts":`) {
		return SnapHeader{}, false
	}
	parts, kOK := s.int(math.MaxInt64)
	if !kOK || !s.lit(`,"seq":`) {
		return SnapHeader{}, false
	}
	seq, sOK := s.uint()
	if !sOK || !s.lit(`,"size":`) {
		return SnapHeader{}, false
	}
	size, zOK := s.uint()
	if !zOK || !s.lit(`}`) || s.i != len(payload) {
		return SnapHeader{}, false
	}
	if parts < 1 || part < 0 || part >= parts || size > MaxSnapshotSize {
		return SnapHeader{}, false
	}
	return SnapHeader{Part: int(part), Parts: int(parts), Seq: seq, Size: size}, true
}
