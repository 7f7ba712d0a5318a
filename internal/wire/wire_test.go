package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"sybilwild/internal/osn"
)

// TestFrameRoundTrip: WriteFrame and AppendFrame must produce the
// same bytes, and ReadFrame must invert both.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"t":"batch","seq":7,"events":[]}`)
	var viaWriter bytes.Buffer
	if err := WriteFrame(&viaWriter, payload); err != nil {
		t.Fatal(err)
	}
	viaAppend := AppendFrame(nil, payload)
	if !bytes.Equal(viaWriter.Bytes(), viaAppend) {
		t.Fatalf("WriteFrame and AppendFrame disagree:\n%q\n%q", viaWriter.Bytes(), viaAppend)
	}
	got, err := ReadFrame(bytes.NewReader(viaAppend), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, want %q", got, payload)
	}
}

// TestReadFrameRejectsOversizedLength: a corrupt length prefix must
// fail loudly instead of allocating gigabytes.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestBatchCodecRoundTrip exercises the canonical encode/decode pair
// directly (the transport's fallback-agreement test lives in
// internal/stream; the spool has no fallback, so the strict path must
// stand on its own).
func TestBatchCodecRoundTrip(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 0, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: -5, Actor: 3, Target: 4, Aux: 9},
		{Type: osn.EvBan, At: 1 << 40, Actor: -7, Target: 0},
	}
	payload := AppendBatch(nil, 42, events)
	seq, got, ok := ParseBatch(payload, nil)
	if !ok {
		t.Fatalf("canonical payload rejected: %s", payload)
	}
	if seq != 42 || len(got) != len(events) {
		t.Fatalf("seq=%d n=%d, want 42/%d", seq, len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], events[i])
		}
	}
	if _, _, ok := ParseBatch(payload[:len(payload)-1], nil); ok {
		t.Fatal("truncated payload accepted")
	}
}

// TestParseBatchBounds pins the cheap bounds probe against the full
// parser on canonical payloads of every shape the broker produces,
// including the empty batch.
func TestParseBatchBounds(t *testing.T) {
	cases := [][]osn.Event{
		nil,
		{{Type: osn.EvMessage, At: 1, Actor: 2, Target: 3}},
		{
			{Type: osn.EvFriendRequest, At: 0, Actor: 1, Target: 2},
			{Type: osn.EvFriendAccept, At: -5, Actor: 3, Target: 4, Aux: 9},
			{Type: osn.EvBan, At: 1 << 40, Actor: -7, Target: 0},
		},
	}
	for _, events := range cases {
		payload := AppendBatch(nil, 42, events)
		first, n, ok := ParseBatchBounds(payload)
		if !ok || first != 42 || n != len(events) {
			t.Fatalf("bounds of %s: first=%d n=%d ok=%v, want 42/%d/true", payload, first, n, ok, len(events))
		}
	}
	if _, _, ok := ParseBatchBounds(AppendPBatch(nil, 1, nil)); ok {
		t.Fatal("bounds probe accepted a pbatch payload")
	}
	if _, _, ok := ParseBatchBounds([]byte(`{"t":"batch","seq":1,"events":[`)); ok {
		t.Fatal("bounds probe accepted a truncated payload")
	}
}

// TestBatchEventsSectionSplice pins the splice contract: joining the
// events sections of consecutive frames with ',' under a fresh prefix
// must reproduce AppendBatch over the concatenated events, byte for
// byte — this is what lets the broker merge pre-encoded frames with
// memcpy instead of a re-encode.
func TestBatchEventsSectionSplice(t *testing.T) {
	a := []osn.Event{
		{Type: osn.EvFriendRequest, At: 1, Actor: 1, Target: 2},
		{Type: osn.EvMessage, At: 2, Actor: 2, Target: 1, Aux: 5},
	}
	b := []osn.Event{
		{Type: osn.EvBan, At: 3, Actor: -1, Target: 4},
	}
	fa := AppendBatch(nil, 10, a)
	fb := AppendBatch(nil, 12, b)
	sa, ok := BatchEventsSection(fa)
	if !ok {
		t.Fatalf("section of %s rejected", fa)
	}
	sb, ok := BatchEventsSection(fb)
	if !ok {
		t.Fatalf("section of %s rejected", fb)
	}
	spliced := AppendBatch(nil, 10, nil)
	spliced = spliced[:len(spliced)-2] // drop "]}"
	spliced = append(spliced, sa...)
	spliced = append(spliced, ',')
	spliced = append(spliced, sb...)
	spliced = append(spliced, ']', '}')
	want := AppendBatch(nil, 10, append(append([]osn.Event{}, a...), b...))
	if !bytes.Equal(spliced, want) {
		t.Fatalf("splice diverges from fresh encode:\n%s\n%s", spliced, want)
	}
	// An empty batch's section is empty, so a splice starting from it
	// must not emit a leading comma; pin the section itself.
	se, ok := BatchEventsSection(AppendBatch(nil, 1, nil))
	if !ok || len(se) != 0 {
		t.Fatalf("empty batch section: %q ok=%v, want empty/true", se, ok)
	}
	if _, ok := BatchEventsSection(AppendPBatch(nil, 1, a)); ok {
		t.Fatal("events section accepted a pbatch payload")
	}
}

// TestPBatchCodecRoundTrip pins the publish-side batch form: same
// canonical event encoding as the downstream batch, different tag and
// sequence meaning — and neither parser may accept the other's tag,
// or a misrouted frame would be silently re-interpreted.
func TestPBatchCodecRoundTrip(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvBlogShare, At: 11, Actor: 2, Target: 1, Aux: 3},
	}
	payload := AppendPBatch(nil, 7, events)
	bseq, got, ok := ParsePBatch(payload, nil)
	if !ok {
		t.Fatalf("canonical pbatch rejected: %s", payload)
	}
	if bseq != 7 || len(got) != len(events) {
		t.Fatalf("bseq=%d n=%d, want 7/%d", bseq, len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], events[i])
		}
	}
	if _, _, ok := ParseBatch(payload, nil); ok {
		t.Fatal("ParseBatch accepted a pbatch payload")
	}
	if _, _, ok := ParsePBatch(AppendBatch(nil, 7, events), nil); ok {
		t.Fatal("ParsePBatch accepted a batch payload")
	}
}

// TestSuffixBatch pins the mid-frame splice: the suffix starting at
// any sequence inside a canonical payload's run must be byte-identical
// to a fresh encode of the trailing events — this is what a resumed
// subscriber (and a relay adopting a straddling resend) receives as
// its first frame.
func TestSuffixBatch(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: 11, Actor: 2, Target: 1},
		{Type: osn.EvBlogShare, At: 12, Actor: 3, Target: 4, Aux: 9},
	}
	payload := AppendBatch(nil, 5, events)
	var scratch []EventRef
	for from := uint64(5); from <= 8; from++ {
		var got []byte
		var ok bool
		got, scratch, ok = SuffixBatch(nil, payload, from, scratch[:0])
		if !ok {
			t.Fatalf("suffix from %d rejected", from)
		}
		want := AppendBatch(nil, from, events[from-5:])
		if string(got) != string(want) {
			t.Fatalf("suffix from %d: %s, want %s", from, got, want)
		}
	}
	if _, _, ok := SuffixBatch(nil, payload, 4, nil); ok {
		t.Fatal("accepted a suffix before the frame's run")
	}
	if _, _, ok := SuffixBatch(nil, payload, 9, nil); ok {
		t.Fatal("accepted a suffix past the frame's run")
	}
	if _, _, ok := SuffixBatch(nil, AppendPBatch(nil, 5, events), 6, nil); ok {
		t.Fatal("accepted a pbatch payload")
	}
}

// TestParsersAcceptOnlyCanonical: the batch-shaped parsers accept
// exactly what strconv writes for each field's type and nothing else.
// A leading zero, a "-0", a zero aux (the encoder omits it) and an
// out-of-range value are refused — an id of 2³²+1 must not decode as
// account 1 — while each type's extremes are accepted. Every accepted
// payload must re-encode to itself, byte for byte.
func TestParsersAcceptOnlyCanonical(t *testing.T) {
	batch := func(fields string) string {
		return `{"t":"batch","seq":1,"events":[{"type":"ban",` + fields + `}]}`
	}
	const ids = `"actor":1,"target":2`
	for _, tc := range []struct {
		name, payload string
		ok            bool
	}{
		{"plain", batch(`"at":5,` + ids), true},
		{"int64 at extremes", batch(`"at":-9223372036854775808,` + ids), true},
		{"int64 at max", batch(`"at":9223372036854775807,` + ids), true},
		{"int32 id extremes", batch(`"at":0,"actor":-2147483648,"target":2147483647`), true},
		{"int32 aux extremes", batch(`"at":0,` + ids + `,"aux":-2147483648`), true},
		{"uint64 seq max", `{"t":"batch","seq":18446744073709551615,"events":[]}`, true},
		{"long seq", `{"t":"pbatch","bseq":1234567890123,"events":[]}`, true},
		{"fbatch extremes", `{"t":"fbatch","last":18446744073709551615,"events":[{"seq":0,"type":"message","at":-1,"actor":0,"target":0,"aux":2147483647}]}`, true},

		{"seq leading zero", `{"t":"batch","seq":01,"events":[]}`, false},
		{"bseq leading zero", `{"t":"pbatch","bseq":007,"events":[]}`, false},
		{"last leading zero", `{"t":"fbatch","last":00,"events":[]}`, false},
		{"fbatch seq leading zero", `{"t":"fbatch","last":9,"events":[{"seq":09,"type":"ban","at":0,"actor":0,"target":0}]}`, false},
		{"negative seq", `{"t":"batch","seq":-1,"events":[]}`, false},
		{"seq past uint64", `{"t":"batch","seq":18446744073709551616,"events":[]}`, false},
		{"seq of 21 digits", `{"t":"batch","seq":100000000000000000000,"events":[]}`, false},
		{"at leading zero", batch(`"at":007,` + ids), false},
		{"at minus zero", batch(`"at":-0,` + ids), false},
		{"at plus sign", batch(`"at":+5,` + ids), false},
		{"at bare minus", batch(`"at":-,` + ids), false},
		{"at past int64", batch(`"at":9223372036854775808,` + ids), false},
		{"at below int64", batch(`"at":-9223372036854775809,` + ids), false},
		{"actor past int32", batch(`"at":0,"actor":4294967297,"target":2`), false},
		{"actor just past int32", batch(`"at":0,"actor":2147483648,"target":2`), false},
		{"target below int32", batch(`"at":0,"actor":1,"target":-2147483649`), false},
		{"aux zero", batch(`"at":0,` + ids + `,"aux":0`), false},
		{"aux minus zero", batch(`"at":0,` + ids + `,"aux":-0`), false},
		{"aux past int32", batch(`"at":0,` + ids + `,"aux":2147483648`), false},
		{"exponent", batch(`"at":1e3,` + ids), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := []byte(tc.payload)
			var ok bool
			var enc []byte
			switch {
			case bytes.HasPrefix(p, []byte(`{"t":"fbatch"`)):
				last, evs, seqs, fok := ParseFBatch(p, nil, nil)
				ok, enc = fok, AppendFBatch(nil, last, seqs, evs)
			case bytes.HasPrefix(p, []byte(`{"t":"pbatch"`)):
				bseq, evs, pok := ParsePBatch(p, nil)
				ok, enc = pok, AppendPBatch(nil, bseq, evs)
				if _, _, iok := IndexPBatch(p, nil); iok != ok {
					t.Errorf("IndexPBatch ok=%v, ParsePBatch ok=%v", iok, ok)
				}
			default:
				seq, evs, bok := ParseBatch(p, nil)
				ok, enc = bok, AppendBatch(nil, seq, evs)
				if _, _, iok := IndexBatch(p, nil); iok != ok {
					t.Errorf("IndexBatch ok=%v, ParseBatch ok=%v", iok, ok)
				}
			}
			if ok != tc.ok {
				t.Fatalf("accepted=%v, want %v: %s", ok, tc.ok, p)
			}
			if ok && !bytes.Equal(enc, p) {
				t.Fatalf("accepted payload re-encodes differently:\n%s\n%s", p, enc)
			}
		})
	}
}

// TestScannerNumbers holds the word-at-a-time number scan to strconv
// at every length from 1 to 20 digits, at both ends of each type, and
// followed by each kind of byte the canonical form puts after a number
// (or by the end of the payload).
func TestScannerNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var us []uint64
	for _, p := range pow10 {
		us = append(us, p-1, p, p+1)
	}
	for i := 0; i < 2000; i++ {
		us = append(us, rng.Uint64()>>rng.Intn(64)) // every length
	}
	us = append(us, math.MaxUint64, math.MaxUint64-1, math.MaxInt64, math.MaxInt64+1, math.MaxInt32, math.MaxInt32+1)
	for _, v := range us {
		for _, tail := range []string{"", ",", "}", "]}", `,"x":1`} {
			b := strconv.AppendUint(nil, v, 10)
			s := scanner{b: append(b, tail...)}
			if got, ok := s.uint(); !ok || got != v || s.i != len(b) {
				t.Fatalf("uint of %q: %d ok=%v at %d, want %d at %d", s.b, got, ok, s.i, v, len(b))
			}
			for _, hi := range []uint64{math.MaxInt32, math.MaxInt64} {
				for _, neg := range []bool{false, true} {
					want, in := int64(v), v <= hi
					b := strconv.AppendUint(nil, v, 10)
					if neg {
						want, in = -int64(v), v != 0 && v <= hi+1
						b = append([]byte{'-'}, b...)
					}
					s := scanner{b: append(b, tail...)}
					got, ok := s.int(hi)
					if ok != in || ok && (got != want || s.i != len(b)) {
						t.Fatalf("int(%d) of %q: %d ok=%v, want %d ok=%v", hi, s.b, got, ok, want, in)
					}
				}
			}
		}
	}
	for _, bad := range []string{"", "-", "x1", "00", "01", "-0", "+1", "18446744073709551616", "99999999999999999999", "100000000000000000000"} {
		s := scanner{b: []byte(bad)}
		if v, ok := s.uint(); ok {
			t.Errorf("uint accepted %q as %d", bad, v)
		}
		s = scanner{b: []byte(bad)}
		if v, ok := s.int(math.MaxInt64); ok {
			t.Errorf("int accepted %q as %d", bad, v)
		}
	}
	for _, v := range us {
		if got, want := uintLen(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Fatalf("uintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
