// Package wire is the codec layer shared by the feed transport
// (internal/stream) and the disk spool (internal/spool): length-prefix
// framing and the binary v3 frames that carry events. Keeping the codec
// below both packages means a spool segment holds byte-identical frames
// to the ones the transport sends, so replaying from disk is the same
// decode path as replaying from memory — and no other package knows the
// event byte layout.
//
// A frame is a 4-byte big-endian payload length followed by the
// payload. A payload whose first byte is '{' is a JSON control frame
// (IsControl); any other payload is an event frame, whose first byte is
// its tag. The three event frames share one fixed-width little-endian
// layout, a header followed by n records:
//
//	header  tag u8 | seq u64 | n u32                              13 bytes
//	record  type u8 | at i64 | actor i32 | target i32 | aux i32   21 bytes
//
// A batch (tag 0x01) numbers its records consecutively from seq. A
// pbatch (0x02) is the producer→broker form; its seq is the producer's
// own batch sequence. An fbatch (0x03) is a partition's view of the
// feed; its seq is the cursor "last" the frame advances the subscriber
// to, and each record is led by its own feed sequence (seq u64, 29
// bytes in all).
//
// A payload is accepted exactly when it is what the encoders emit for
// some events: the right tag, a length of exactly the header plus n
// records, and a known event type in every record — for a pbatch, a
// type a producer may publish: every one but the broker's cutover
// record (osn.EvCutover). So
// AppendBatch(ParseBatch(p)) == p byte for byte for every accepted p
// (likewise for pbatch and fbatch), and an accepted frame's records can
// be copied instead of decoded: SpliceBatch, SuffixBatch, Join and
// SpliceFBatch build new frames, identical to a fresh encode, out of
// copies.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"sybilwild/internal/osn"
)

// MaxFrameSize bounds a single frame; readers reject anything larger
// rather than trusting a corrupt length prefix.
const MaxFrameSize = 16 << 20

// WriteFrame emits one length-prefixed frame payload.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the length prefix and payload to dst — the
// in-memory form of WriteFrame, used when the caller batches its own
// writes (e.g. the spool appending to a segment buffer).
func AppendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed payload, reusing buf when it is
// large enough. The returned slice is only valid until the next call.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	return ReadFrameLimit(r, buf, MaxFrameSize)
}

// ReadFrameLimit is ReadFrame with a caller-chosen size bound, for
// frame pairs whose header announces a payload larger than
// MaxFrameSize (snapshot payloads, bounded by MaxSnapshotSize and the
// header's own declared size).
func ReadFrameLimit(r io.Reader, buf []byte, limit uint64) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > limit {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// IsControl reports whether payload is a control frame: a JSON object.
// No event frame's tag is '{', so the first byte alone tells the two
// apart.
func IsControl(payload []byte) bool { return len(payload) > 0 && payload[0] == '{' }

// The event frame layout; see the package doc.
const (
	tagBatch  = 0x01
	tagPBatch = 0x02
	tagFBatch = 0x03

	headerSize    = 13 // tag u8 | seq u64 | n u32
	recordSize    = 21 // type u8 | at i64 | actor i32 | target i32 | aux i32
	seqRecordSize = 8 + recordSize

	// lastType is the highest event type this build knows. feedTypes
	// and producerTypes are the sets a feed frame and a pbatch may carry,
	// one bit per type: the cutover record is the broker's own, so a
	// pbatch carrying one is refused.
	lastType      = byte(osn.EvFriendship)
	feedTypes     = types(1<<(lastType+1) - 1)
	producerTypes = feedTypes &^ (1 << osn.EvCutover)
)

// types is a set of event types, bit t for osn.EventType t: a record's
// type byte t is in set s iff s>>t&1 != 0, one shift and mask per
// record (a byte past the set's width shifts out to zero).
type types uint16

var le = binary.LittleEndian

// AppendBatch appends the batch payload for events with first sequence
// seq to dst and returns the extended slice.
func AppendBatch(dst []byte, seq uint64, events []osn.Event) []byte {
	return appendEvents(dst, tagBatch, seq, events)
}

// AppendPBatch appends the publish batch payload — the producer→broker
// form, numbered by the producer's own batch sequence — to dst and
// returns the extended slice.
func AppendPBatch(dst []byte, bseq uint64, events []osn.Event) []byte {
	return appendEvents(dst, tagPBatch, bseq, events)
}

func appendEvents(dst []byte, tag byte, seq uint64, events []osn.Event) []byte {
	dst, recs := grow(dst, tag, seq, len(events), recordSize)
	for i, ev := range events {
		putEvent(recs[i*recordSize:], ev)
	}
	return dst
}

// grow extends dst by one event frame of n records of rec bytes each,
// writes its header, and returns the extended slice and the frame's
// records. Growing nil makes one allocation, sized for the frame.
func grow(dst []byte, tag byte, seq uint64, n, rec int) (out, records []byte) {
	off, size := len(dst), headerSize+n*rec
	if dst == nil {
		dst = make([]byte, 0, size)
	}
	dst = slices.Grow(dst, size)[:off+size]
	dst[off] = tag
	le.PutUint64(dst[off+1:], seq)
	le.PutUint32(dst[off+9:], uint32(n))
	return dst, dst[off+headerSize:]
}

// putEvent stores ev as one record at the start of b.
func putEvent(b []byte, ev osn.Event) {
	_ = b[recordSize-1]
	b[0] = byte(ev.Type)
	le.PutUint64(b[1:], uint64(ev.At))
	le.PutUint32(b[9:], uint32(ev.Actor))
	le.PutUint32(b[13:], uint32(ev.Target))
	le.PutUint32(b[17:], uint32(ev.Aux))
}

// event loads the record at the start of b; ok is false when its type
// is not in allowed.
func event(b []byte, allowed types) (ev osn.Event, ok bool) {
	_ = b[recordSize-1]
	return osn.Event{
		Type:   osn.EventType(b[0]),
		At:     int64(le.Uint64(b[1:])),
		Actor:  osn.AccountID(le.Uint32(b[9:])),
		Target: osn.AccountID(le.Uint32(b[13:])),
		Aux:    int32(le.Uint32(b[17:])),
	}, allowed>>b[0]&1 != 0
}

// header checks that payload is an event frame tagged tag whose length
// is exactly its header plus the n records of rec bytes it counts, and
// returns the header's number and n.
func header(payload []byte, tag byte, rec int) (uint64, int, bool) {
	if len(payload) < headerSize || payload[0] != tag {
		return 0, 0, false
	}
	n := le.Uint32(payload[9:])
	if uint64(len(payload)-headerSize) != uint64(n)*uint64(rec) {
		return 0, 0, false
	}
	return le.Uint64(payload[1:]), int(n), true
}

// ParseBatch decodes a batch payload into events appended to dst. ok is
// false when the payload is not one AppendBatch emits.
func ParseBatch(payload []byte, dst []osn.Event) (seq uint64, evs []osn.Event, ok bool) {
	return parseEvents(payload, tagBatch, feedTypes, dst)
}

// ParsePBatch decodes a publish batch payload into events appended to
// dst, returning the producer's batch sequence. Same rules as
// ParseBatch, except that a cutover record is refused: only the broker
// writes one.
func ParsePBatch(payload []byte, dst []osn.Event) (bseq uint64, evs []osn.Event, ok bool) {
	return parseEvents(payload, tagPBatch, producerTypes, dst)
}

// parseEvents decodes a payload tagged tag whose records' types are all
// in allowed.
func parseEvents(payload []byte, tag byte, allowed types, dst []osn.Event) (uint64, []osn.Event, bool) {
	seq, n, ok := header(payload, tag, recordSize)
	if !ok {
		return 0, dst, false
	}
	evs := slices.Grow(dst, n)[:len(dst)+n]
	out, recs := evs[len(dst):], payload[headerSize:]
	for i := range out {
		var ok bool
		if out[i], ok = event(recs[i*recordSize:], allowed); !ok {
			return 0, dst, false
		}
	}
	return seq, evs, true
}

// ParseBatchBounds reports the first sequence and event count of a
// batch payload, checking it exactly as ParseBatch does without
// decoding an event. It exists for the broker's shared-frame plumbing
// (adoption, the spool), which moves frames around whole and only needs
// to know which sequence run a frame covers.
func ParseBatchBounds(payload []byte) (first uint64, n int, ok bool) {
	return bounds(payload, tagBatch, feedTypes)
}

// ParsePBatchBounds is ParseBatchBounds for a publish batch payload,
// returning the producer's batch sequence; like ParsePBatch it refuses
// a cutover record.
func ParsePBatchBounds(payload []byte) (bseq uint64, n int, ok bool) {
	return bounds(payload, tagPBatch, producerTypes)
}

func bounds(payload []byte, tag byte, allowed types) (uint64, int, bool) {
	seq, n, ok := header(payload, tag, recordSize)
	for off := headerSize; ok && off < len(payload); off += recordSize {
		ok = allowed>>payload[off]&1 != 0
	}
	if !ok {
		return 0, 0, false
	}
	return seq, n, true
}

// NextCutover finds the first cutover record (osn.EvCutover) at or
// after record i of a batch payload ParseBatchBounds accepted, reading
// only the records' type bytes: it returns the record's index and the
// record, or -1 when there is none. A relay hop learns a live
// rebalance from the frames it adopts this way.
func NextCutover(payload []byte, i int) (int, osn.Event) {
	for off := headerSize + i*recordSize; off < len(payload); off += recordSize {
		if payload[off] == byte(osn.EvCutover) {
			ev, _ := event(payload[off:], feedTypes)
			return (off - headerSize) / recordSize, ev
		}
	}
	return -1, osn.Event{}
}

// SpliceBatch appends to dst the batch payload with first sequence seq
// holding events [off, end) of src, a batch or pbatch payload that
// ParseBatchBounds or ParsePBatchBounds accepted: a header and one copy,
// the bytes AppendBatch emits for the same events. Splicing onto nil
// makes one allocation, sized for the payload.
func SpliceBatch(dst []byte, seq uint64, src []byte, off, end int) []byte {
	dst, recs := grow(dst, tagBatch, seq, end-off, recordSize)
	copy(recs, src[headerSize+off*recordSize:])
	return dst
}

// SuffixBatch splices the tail of a batch payload so the result starts
// exactly at sequence from. This is the one frame shared-frame plumbing
// ever rebuilds — a resume or a relay adoption landing mid-frame, at
// most once per (re)connection. ok is false when the payload does not
// parse or from lies outside its run (before its first event or past
// one-off its end).
func SuffixBatch(dst, payload []byte, from uint64) ([]byte, bool) {
	seq, n, ok := ParseBatchBounds(payload)
	if !ok || from < seq || from-seq > uint64(n) {
		return dst, false
	}
	return SpliceBatch(dst, from, payload, int(from-seq), n), true
}

// Join appends to dst one payload holding the events of frames, in
// order: consecutive batch payloads join into a batch numbered from the
// first one's sequence, and consecutive partition views (fbatch, whose
// records carry their own sequences) join into an fbatch carrying
// cursor last. The frames must be accepted payloads of one kind; the
// result is what a fresh encode of the joined events emits, built with
// one copy per frame.
func Join(dst []byte, last uint64, frames ...[]byte) []byte {
	tag, rec := frames[0][0], seqRecordSize
	if tag != tagFBatch {
		last, rec = le.Uint64(frames[0][1:]), recordSize
	}
	n := 0
	for _, f := range frames {
		n += int(le.Uint32(f[9:]))
	}
	dst, recs := grow(dst, tag, last, n, rec)
	for _, f := range frames {
		recs = recs[copy(recs, f[headerSize:]):]
	}
	return dst
}
