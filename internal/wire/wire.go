// Package wire is the codec layer shared by the feed transport
// (internal/stream) and the disk spool (internal/spool): length-prefix
// framing and the canonical JSON batch encoding for sequenced event
// runs. Keeping the codec below both packages means a spool segment
// holds byte-identical frames to the ones the transport sends, so
// replaying from disk is the same decode path as replaying from
// memory.
//
// A frame is a 4-byte big-endian payload length followed by a JSON
// payload. The batch payload's canonical form is
//
//	{"t":"batch","seq":N,"events":[{"type":"...","at":T,"actor":A,"target":B,"aux":X},...]}
//
// with exact key order, no whitespace, "aux" omitted when zero, and
// every number as strconv writes it: no leading zero, no "-0", and
// within its field's type (uint64 sequences, int64 "at", int32 ids and
// aux). AppendBatch emits exactly this form; ParseBatch accepts exactly
// this form — AppendBatch(ParseBatch(p)) == p byte for byte for every
// accepted p — and reports !ok on anything else, in which case
// transport-level callers fall back to encoding/json (the spool never
// needs to: it only reads frames it wrote). The publish-side "pbatch"
// frame — producer→broker, numbered by the producer's own batch
// sequence instead of the feed's global one — is the same shape under
// the tag `{"t":"pbatch","bseq":N,...}` and shares the encoder and
// parser (AppendPBatch / ParsePBatch).
//
// Because an accepted payload is exactly its encoder's output, its
// event bytes can be reused as they are: IndexBatch / IndexPBatch run
// the same check and locate each event, and SpliceBatch / SpliceFBatch
// build new batch and fbatch frames from those bytes, identical to a
// fresh encode, without decoding or encoding an event.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
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

// Event is the JSON wire form of an osn.Event. Seq is only set inside
// "fbatch" frames, where delivered events are sparse in the global
// order and each one carries its own feed sequence; contiguous batch
// frames number events implicitly from the frame's first sequence and
// leave Seq zero.
type Event struct {
	Seq    uint64 `json:"seq,omitempty"`
	Type   string `json:"type"`
	At     int64  `json:"at"`
	Actor  int32  `json:"actor"`
	Target int32  `json:"target"`
	Aux    int32  `json:"aux,omitempty"`
}

// FromOSN converts an event to wire form.
func FromOSN(ev osn.Event) Event {
	return Event{
		Type:   ev.Type.String(),
		At:     ev.At,
		Actor:  int32(ev.Actor),
		Target: int32(ev.Target),
		Aux:    ev.Aux,
	}
}

// EventTypeFromString inverts osn.EventType.String.
func EventTypeFromString(s string) (osn.EventType, error) {
	switch s {
	case "friend_request":
		return osn.EvFriendRequest, nil
	case "friend_accept":
		return osn.EvFriendAccept, nil
	case "friend_reject":
		return osn.EvFriendReject, nil
	case "message":
		return osn.EvMessage, nil
	case "ban":
		return osn.EvBan, nil
	case "blog_post":
		return osn.EvBlogPost, nil
	case "blog_share":
		return osn.EvBlogShare, nil
	default:
		return 0, fmt.Errorf("wire: unknown event type %q", s)
	}
}

// ToOSN converts back from wire form.
func (w Event) ToOSN() (osn.Event, error) {
	typ, err := EventTypeFromString(w.Type)
	if err != nil {
		return osn.Event{}, err
	}
	return osn.Event{
		Type:   typ,
		At:     sim.Time(w.At),
		Actor:  osn.AccountID(w.Actor),
		Target: osn.AccountID(w.Target),
		Aux:    w.Aux,
	}, nil
}

// Canonical payload prefixes for the two batch-shaped frames: the
// downstream batch (sequenced in the feed's global order) and the
// publish-side pbatch (sequenced per producer for reconnect dedupe).
// Both share one encoder and one parser; only the tag and the meaning
// of the leading number differ.
const (
	batchPrefix  = `{"t":"batch","seq":`
	pbatchPrefix = `{"t":"pbatch","bseq":`

	// What follows the leading number of every batch-shaped frame
	// (batch, pbatch, fbatch), and what closes it.
	eventsOpen  = `,"events":[`
	eventsClose = `]}`
)

// AppendBatch appends the canonical JSON batch payload for events with
// first sequence seq to dst and returns the extended slice. Batch
// payloads dominate feed traffic and fill every spool segment, so the
// encoding avoids encoding/json reflection entirely.
func AppendBatch(dst []byte, seq uint64, events []osn.Event) []byte {
	return appendBatch(dst, batchPrefix, seq, events)
}

// AppendPBatch appends the canonical publish batch payload — the
// producer→broker form, tagged "pbatch" and numbered by the producer's
// own batch sequence — to dst and returns the extended slice.
func AppendPBatch(dst []byte, bseq uint64, events []osn.Event) []byte {
	return appendBatch(dst, pbatchPrefix, bseq, events)
}

func appendBatch(dst []byte, prefix string, seq uint64, events []osn.Event) []byte {
	dst = append(dst, prefix...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, eventsOpen...)
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"type":"`...)
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

// ParseBatch decodes a canonical batch payload into events appended to
// dst. ok is false when the payload deviates from the canonical form;
// transport callers then fall back to encoding/json, storage callers
// treat it as corruption.
func ParseBatch(payload []byte, dst []osn.Event) (seq uint64, evs []osn.Event, ok bool) {
	return parseBatch(payload, batchPrefix, dst)
}

// ParsePBatch decodes a canonical publish batch payload (the
// producer→broker "pbatch" form) into events appended to dst,
// returning the producer's batch sequence. Same canonical-form rules
// as ParseBatch.
func ParsePBatch(payload []byte, dst []osn.Event) (bseq uint64, evs []osn.Event, ok bool) {
	return parseBatch(payload, pbatchPrefix, dst)
}

// ParseBatchBounds reports the first sequence and event count of a
// canonical batch payload without decoding the events. It exists for
// the broker's shared-frame fan-out, which moves pre-encoded frames
// around and only needs to know which sequence run a frame covers.
// The payload must have been produced by AppendBatch; counting relies
// on canonical event objects being flat, with enum-only string values
// that can never contain '{'.
func ParseBatchBounds(payload []byte) (first uint64, n int, ok bool) {
	first, sec, ok := eventsSection(payload, batchPrefix)
	return first, bytes.Count(sec, []byte{'{'}), ok
}

// BatchEventsSection returns the raw contents of a canonical batch
// payload's events array (the bytes between '[' and ']'). Splicing
// these sections with ',' separators under a fresh batch prefix yields
// a frame byte-identical to AppendBatch over the concatenated events —
// the merge path for coalescing consecutive pre-encoded frames without
// touching an encoder. The payload must have been produced by
// AppendBatch.
func BatchEventsSection(payload []byte) ([]byte, bool) {
	_, sec, ok := eventsSection(payload, batchPrefix)
	return sec, ok
}

// eventsSection returns the leading number of a batch-shaped payload
// and the bytes between its events array's brackets, checking only the
// frame's opening and its closing "]}".
func eventsSection(payload []byte, prefix string) (uint64, []byte, bool) {
	s := scanner{b: payload}
	v, ok := s.head(prefix)
	if !ok || !bytes.HasSuffix(payload[s.i:], []byte(eventsClose)) {
		return 0, nil, false
	}
	return v, payload[s.i : len(payload)-len(eventsClose)], true
}

// SpliceBatch appends to dst the canonical batch payload with first
// sequence seq whose events are refs — a run of consecutive events
// indexed in src by IndexBatch or IndexPBatch — copied verbatim: the
// bytes AppendBatch would emit for the same events, built without
// decoding or encoding one. Splicing onto nil makes one allocation,
// sized for the payload.
func SpliceBatch(dst []byte, seq uint64, src []byte, refs []EventRef) []byte {
	var events []byte
	if len(refs) > 0 {
		events = src[refs[0].Start:refs[len(refs)-1].End]
	}
	if dst == nil {
		dst = make([]byte, 0, len(batchPrefix)+uintLen(seq)+len(eventsOpen)+len(events)+len(eventsClose))
	}
	dst = append(dst, batchPrefix...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, eventsOpen...)
	dst = append(dst, events...)
	return append(dst, eventsClose...)
}

// SuffixBatch splices the tail of a canonical batch payload so the
// result starts exactly at sequence from: the payload is indexed (into
// scratch, which callers reuse across calls), events below from are
// dropped, and the rest is spliced onto dst under a fresh header. This
// is the one frame shared-frame plumbing ever rebuilds — a resume or a
// relay adoption landing mid-frame, at most once per (re)connection.
// refs is the index buffer for recycling (refs[:0] as the next
// scratch). ok is false when the payload is not canonical or from lies
// outside the frame's sequence run (before its first event or past
// one-off its end).
func SuffixBatch(dst, payload []byte, from uint64, scratch []EventRef) (out []byte, refs []EventRef, ok bool) {
	seq, refs, ok := IndexBatch(payload, scratch)
	if !ok || from < seq || from-seq > uint64(len(refs)) {
		return dst, refs, false
	}
	return SpliceBatch(dst, from, payload, refs[from-seq:]), refs, true
}

func parseBatch(payload []byte, prefix string, dst []osn.Event) (uint64, []osn.Event, bool) {
	s := scanner{b: payload}
	seq, ok := s.head(prefix)
	if !ok {
		return 0, dst, false
	}
	evs := dst
	var ev osn.Event
	for n := 0; !s.lit(eventsClose); n++ {
		if n > 0 && !s.lit(",") || !s.lit(`{"type":"`) || !s.event(&ev) {
			return 0, dst, false
		}
		evs = append(evs, ev)
	}
	if s.i != len(payload) {
		return 0, dst, false
	}
	return seq, evs, true
}
