package wire

import (
	"encoding/binary"
	"math"
	"math/bits"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// scanner is the one reader of canonical payloads: the batch, pbatch
// and fbatch parsers, the event index and the header probes all run on
// it. Each method consumes exactly the bytes this package's encoders
// emit for its token, or reports false: a number is strconv's output
// for its field's type (no leading zero, no "-0", no sign on an
// unsigned field, in range), a literal matches whole, and nothing is
// skipped. After a false the position is unspecified; callers give up
// on the payload.
type scanner struct {
	b []byte
	i int
}

// lit consumes the literal l.
func (s *scanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// head consumes a batch-shaped frame's opening: prefix, the frame's
// leading unsigned number, and the opening of its events array.
func (s *scanner) head(prefix string) (uint64, bool) {
	if !s.lit(prefix) {
		return 0, false
	}
	v, ok := s.uint()
	return v, ok && s.lit(eventsOpen)
}

// pow10[n] is 10ⁿ.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// uintLen is the length of v in decimal.
func uintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	n := bits.Len64(v) * 1233 >> 12 // ⌊bitlen·log₁₀2⌋: the length or one less
	if v >= pow10[n] {
		n++
	}
	return n
}

// load8 returns the eight bytes at b[i:] as a little-endian word, so
// the first byte is the lowest; past the end of b it reads zero bytes,
// which are not digits.
func load8(b []byte, i int) uint64 {
	if len(b)-i >= 8 {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w [8]byte
	copy(w[:], b[i:])
	return binary.LittleEndian.Uint64(w[:])
}

// digits8 reads the run of ASCII digits that opens the word x, up to
// all eight bytes, eight at a time instead of one: it returns the run's
// length and its decimal value.
func digits8(x uint64) (n int, v uint64) {
	// Per byte, d = b-'0' is a digit exactly when d < 10, and the high
	// bit of d|(d+0x76) is set otherwise. A borrow or carry only crosses
	// from a non-digit byte into the next, past the run's end, so the
	// lowest set bit marks the end exactly.
	d := x - 0x3030303030303030
	n = bits.TrailingZeros64((d|(d+0x7676767676767676))&0x8080808080808080) >> 3
	if n == 0 {
		return 0, 0
	}
	// Move the run to the top n bytes (dropping what followed it), so the
	// bytes below read as leading zeros, then fold neighbouring lanes
	// into pairs, quads and the whole: lane value = 10ᵏ·high + low.
	d <<= 64 - 8*uint(n)
	d = (d * (10<<8 + 1) >> 8) & 0x00FF00FF00FF00FF
	d = (d * (100<<16 + 1) >> 16) & 0x0000FFFF0000FFFF
	return n, d * (10000<<32 + 1) >> 32
}

// uint consumes an unsigned number: "0", or up to twenty digits without
// a leading zero, at most math.MaxUint64.
func (s *scanner) uint() (uint64, bool) {
	n, v := digits8(load8(s.b, s.i))
	switch {
	case n == 0:
		return 0, false
	case s.b[s.i] == '0':
		if n > 1 {
			return 0, false
		}
		s.i++
		return 0, true
	case n < 8:
		s.i += n
		return v, true
	}
	// Eight digits or more: one more word, then at most four digits,
	// where uint64 can overflow.
	s.i += 8
	n, w := digits8(load8(s.b, s.i))
	s.i += n
	if v = v*pow10[n] + w; n < 8 {
		return v, true
	}
	n, w = digits8(load8(s.b, s.i))
	hi, lo := bits.Mul64(v, pow10[n])
	lo, carry := bits.Add64(lo, w, 0)
	if n > 4 || hi != 0 || carry != 0 {
		return 0, false
	}
	s.i += n
	return lo, true
}

// int consumes a signed number in [-hi-1, hi]: an optional '-', then
// an unsigned number, never "-0".
func (s *scanner) int(hi uint64) (int64, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	v, ok := s.uint()
	switch {
	case !ok:
		return 0, false
	case neg:
		if v == 0 || v > hi+1 {
			return 0, false
		}
		return -int64(v), true // wraps to math.MinInt64 for v = 2⁶³, as it should
	case v > hi:
		return 0, false
	}
	return int64(v), true
}

// typeLits holds, per event type, the canonical bytes from the type
// name through the "at" key.
var typeLits = [...]string{
	osn.EvFriendRequest: `friend_request","at":`,
	osn.EvFriendAccept:  `friend_accept","at":`,
	osn.EvFriendReject:  `friend_reject","at":`,
	osn.EvMessage:       `message","at":`,
	osn.EvBan:           `ban","at":`,
	osn.EvBlogPost:      `blog_post","at":`,
	osn.EvBlogShare:     `blog_share","at":`,
}

// typ consumes an event's type name and the "at" key after it. The name
// is picked by its first and tenth bytes, which tell all seven apart
// (every literal is at least ten bytes long), and then matched whole.
func (s *scanner) typ() (osn.EventType, bool) {
	if len(s.b)-s.i < 10 {
		return 0, false
	}
	var t osn.EventType
	switch s.b[s.i] {
	case 'f':
		switch s.b[s.i+9] {
		case 'q':
			t = osn.EvFriendRequest
		case 'c':
			t = osn.EvFriendAccept
		case 'j':
			t = osn.EvFriendReject
		default:
			return 0, false
		}
	case 'b':
		switch s.b[s.i+9] {
		case ':':
			t = osn.EvBan
		case '"':
			t = osn.EvBlogPost
		case 'e':
			t = osn.EvBlogShare
		default:
			return 0, false
		}
	case 'm':
		t = osn.EvMessage
	default:
		return 0, false
	}
	return t, s.lit(typeLits[t])
}

// event consumes an event object from its type name, the opening
// `{"type":"` (or `{"seq":N,"type":"`) already consumed, through the
// closing brace.
func (s *scanner) event(ev *osn.Event) bool {
	typ, ok := s.typ()
	if !ok {
		return false
	}
	at, ok := s.int(math.MaxInt64)
	if !ok || !s.lit(`,"actor":`) {
		return false
	}
	actor, ok := s.int(math.MaxInt32)
	if !ok || !s.lit(`,"target":`) {
		return false
	}
	target, ok := s.int(math.MaxInt32)
	if !ok {
		return false
	}
	var aux int64
	if s.lit(`,"aux":`) {
		// AppendBatch omits a zero aux, so "aux":0 is never canonical.
		if aux, ok = s.int(math.MaxInt32); !ok || aux == 0 {
			return false
		}
	}
	*ev = osn.Event{
		Type:   typ,
		At:     sim.Time(at),
		Actor:  osn.AccountID(actor),
		Target: osn.AccountID(target),
		Aux:    int32(aux),
	}
	return s.lit("}")
}

// EventRef locates one event of a canonical batch or pbatch payload and
// carries the fields a partition filter reads: payload[Start:End] is
// the event object, braces included.
type EventRef struct {
	Start, End    int
	Type          osn.EventType
	Actor, Target osn.AccountID
}

// IndexBatch is ParseBatch's index form: it checks a canonical batch
// payload exactly as ParseBatch does and appends one EventRef per event
// to dst instead of the event. Splicing the indexed bytes (SpliceBatch,
// SpliceFBatch) builds new frames without an encoder.
func IndexBatch(payload []byte, dst []EventRef) (seq uint64, refs []EventRef, ok bool) {
	return indexBatch(payload, batchPrefix, dst)
}

// IndexPBatch is IndexBatch for the publish-side pbatch payload,
// returning the producer's batch sequence.
func IndexPBatch(payload []byte, dst []EventRef) (bseq uint64, refs []EventRef, ok bool) {
	return indexBatch(payload, pbatchPrefix, dst)
}

func indexBatch(payload []byte, prefix string, dst []EventRef) (uint64, []EventRef, bool) {
	s := scanner{b: payload}
	seq, ok := s.head(prefix)
	if !ok {
		return 0, dst, false
	}
	refs := dst
	var ev osn.Event
	for n := 0; !s.lit(eventsClose); n++ {
		if n > 0 && !s.lit(",") {
			return 0, dst, false
		}
		start := s.i
		if !s.lit(`{"type":"`) || !s.event(&ev) {
			return 0, dst, false
		}
		refs = append(refs, EventRef{Start: start, End: s.i, Type: ev.Type, Actor: ev.Actor, Target: ev.Target})
	}
	if s.i != len(payload) {
		return 0, dst, false
	}
	return seq, refs, true
}
