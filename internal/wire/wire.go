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
// with exact key order, no whitespace, and "aux" omitted when zero.
// AppendBatch emits exactly this form; ParseBatch accepts exactly this
// form and reports !ok on anything else, in which case transport-level
// callers fall back to encoding/json (the spool never needs to: it
// only reads frames it wrote). The publish-side "pbatch" frame —
// producer→broker, numbered by the producer's own batch sequence
// instead of the feed's global one — is the same shape under the tag
// `{"t":"pbatch","bseq":N,...}` and shares the encoder and parser
// (AppendPBatch / ParsePBatch).
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

// EventTypeFromString inverts osn.EventType.String. Taking []byte lets
// the batch fast path switch without allocating a string per event.
func EventTypeFromString[S string | []byte](s S) (osn.EventType, error) {
	switch string(s) {
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
	dst = append(dst, `,"events":[`...)
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
	dst = append(dst, ']', '}')
	return dst
}

// batchCursor walks a canonical batch payload.
type batchCursor struct {
	b []byte
	i int
}

func (c *batchCursor) lit(s string) bool {
	if c.i+len(s) > len(c.b) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *batchCursor) uint() (uint64, bool) {
	start := c.i
	var v uint64
	for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
		v = v*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	return v, c.i > start
}

func (c *batchCursor) int() (int64, bool) {
	neg := false
	if c.i < len(c.b) && c.b[c.i] == '-' {
		neg = true
		c.i++
	}
	v, ok := c.uint()
	if !ok {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// str parses a canonical string value (no escapes) including both
// quotes, returning the unquoted bytes.
func (c *batchCursor) str() ([]byte, bool) {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, false
	}
	c.i++
	start := c.i
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case '\\':
			return nil, false // non-canonical; fall back
		case '"':
			s := c.b[start:c.i]
			c.i++
			return s, true
		}
		c.i++
	}
	return nil, false
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
	c := batchCursor{b: payload}
	if !c.lit(batchPrefix) {
		return 0, 0, false
	}
	first, numOK := c.uint()
	if !numOK || !c.lit(`,"events":[`) {
		return 0, 0, false
	}
	if len(payload) < c.i+2 || payload[len(payload)-2] != ']' || payload[len(payload)-1] != '}' {
		return 0, 0, false
	}
	return first, bytes.Count(payload[c.i:len(payload)-2], []byte{'{'}), true
}

// BatchEventsSection returns the raw contents of a canonical batch
// payload's events array (the bytes between '[' and ']'). Splicing
// these sections with ',' separators under a fresh batch prefix yields
// a frame byte-identical to AppendBatch over the concatenated events —
// the merge path for coalescing consecutive pre-encoded frames without
// touching an encoder. The payload must have been produced by
// AppendBatch.
func BatchEventsSection(payload []byte) ([]byte, bool) {
	c := batchCursor{b: payload}
	if !c.lit(batchPrefix) {
		return nil, false
	}
	if _, numOK := c.uint(); !numOK || !c.lit(`,"events":[`) {
		return nil, false
	}
	if len(payload) < c.i+2 || payload[len(payload)-2] != ']' || payload[len(payload)-1] != '}' {
		return nil, false
	}
	return payload[c.i : len(payload)-2], true
}

// SuffixBatch re-encodes the tail of a canonical batch payload so the
// result starts exactly at sequence from: the payload is decoded (into
// scratch, which callers reuse across calls), events below from are
// dropped, and the remainder is freshly encoded onto dst. This is the
// one encode shared-frame plumbing ever pays — a resume or a relay
// adoption landing mid-frame, at most once per (re)connection. evs is
// the decode buffer for recycling (evs[:0] as the next scratch). ok is
// false when the payload is not canonical or from lies outside the
// frame's sequence run (before its first event or past one-off its
// end).
func SuffixBatch(dst, payload []byte, from uint64, scratch []osn.Event) (out []byte, evs []osn.Event, ok bool) {
	seq, evs, ok := ParseBatch(payload, scratch)
	if !ok || from < seq || from-seq > uint64(len(evs)) {
		return dst, evs, false
	}
	return AppendBatch(dst, from, evs[from-seq:]), evs, true
}

func parseBatch(payload []byte, prefix string, dst []osn.Event) (seq uint64, evs []osn.Event, ok bool) {
	c := batchCursor{b: payload}
	if !c.lit(prefix) {
		return 0, dst, false
	}
	seq, numOK := c.uint()
	if !numOK || !c.lit(`,"events":[`) {
		return 0, dst, false
	}
	evs = dst
	for n := 0; ; n++ {
		if c.lit(`]}`) {
			break
		}
		if n > 0 && !c.lit(`,`) {
			return 0, dst, false
		}
		if !c.lit(`{"type":`) {
			return 0, dst, false
		}
		typStr, sOK := c.str()
		if !sOK {
			return 0, dst, false
		}
		typ, err := EventTypeFromString(typStr)
		if err != nil {
			return 0, dst, false
		}
		if !c.lit(`,"at":`) {
			return 0, dst, false
		}
		at, aOK := c.int()
		if !aOK || !c.lit(`,"actor":`) {
			return 0, dst, false
		}
		actor, acOK := c.int()
		if !acOK || !c.lit(`,"target":`) {
			return 0, dst, false
		}
		target, tOK := c.int()
		if !tOK {
			return 0, dst, false
		}
		var aux int64
		if c.lit(`,"aux":`) {
			var xOK bool
			aux, xOK = c.int()
			if !xOK {
				return 0, dst, false
			}
		}
		if !c.lit(`}`) {
			return 0, dst, false
		}
		evs = append(evs, osn.Event{
			Type:   typ,
			At:     sim.Time(at),
			Actor:  osn.AccountID(int32(actor)),
			Target: osn.AccountID(int32(target)),
			Aux:    int32(aux),
		})
	}
	if c.i != len(payload) {
		return 0, dst, false
	}
	return seq, evs, true
}
