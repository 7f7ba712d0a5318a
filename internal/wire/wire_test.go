package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"sybilwild/internal/osn"
)

// TestFrameRoundTrip: WriteFrame and AppendFrame must produce the
// same bytes, and ReadFrame must invert both.
func TestFrameRoundTrip(t *testing.T) {
	payload := AppendBatch(nil, 7, []osn.Event{{Type: osn.EvMessage, At: 1, Actor: 2, Target: 3}})
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

// TestBatchCodecRoundTrip exercises the encode/decode pair directly,
// at the fixed size the layout promises: a 13-byte header and 21 bytes
// per event.
func TestBatchCodecRoundTrip(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 0, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: -5, Actor: 3, Target: 4, Aux: 9},
		{Type: osn.EvBan, At: 1 << 40, Actor: -7, Target: 0},
	}
	payload := AppendBatch(nil, 42, events)
	if len(payload) != 13+21*len(events) {
		t.Fatalf("batch of %d events is %d bytes, want %d", len(events), len(payload), 13+21*len(events))
	}
	seq, got, ok := ParseBatch(payload, nil)
	if !ok {
		t.Fatalf("payload rejected: %x", payload)
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

// TestParseBatchBounds pins the bounds probe against the full parser on
// payloads of every shape the broker produces, including the empty
// batch, and holds it to the same checks: the tag, the exact length
// and every record's type.
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
			t.Fatalf("bounds of %x: first=%d n=%d ok=%v, want 42/%d/true", payload, first, n, ok, len(events))
		}
	}
	if _, _, ok := ParseBatchBounds(AppendPBatch(nil, 1, nil)); ok {
		t.Fatal("bounds probe accepted a pbatch payload")
	}
	full := AppendBatch(nil, 1, cases[2])
	if _, _, ok := ParseBatchBounds(full[:len(full)-1]); ok {
		t.Fatal("bounds probe accepted a truncated payload")
	}
	unknown := bytes.Clone(full)
	unknown[13+21] = lastType + 1 // the second record's type
	if _, _, ok := ParseBatchBounds(unknown); ok {
		t.Fatal("bounds probe accepted an unknown event type")
	}
}

// TestBatchEventsSectionSplice pins the join contract: joining the
// event sections of consecutive frames under a fresh header must
// reproduce AppendBatch over the concatenated events, byte for byte —
// this is what lets a writer coalesce shared frames with a copy
// instead of a re-encode. An empty frame contributes nothing.
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
	want := AppendBatch(nil, 10, append(append([]osn.Event{}, a...), b...))
	if got := Join(nil, 0, fa, fb); !bytes.Equal(got, want) {
		t.Fatalf("join diverges from fresh encode:\n%x\n%x", got, want)
	}
	if got := Join(nil, 0, AppendBatch(nil, 10, nil), fa, fb); !bytes.Equal(got, want) {
		t.Fatalf("join after an empty frame diverges:\n%x\n%x", got, want)
	}
	// Joining onto reused scratch appends exactly the same bytes.
	scratch := Join(nil, 0, fb, fb, fb)
	if got := Join(scratch[:0], 0, fa, fb); !bytes.Equal(got, want) {
		t.Fatalf("join onto scratch diverges:\n%x\n%x", got, want)
	}
}

// TestPBatchCodecRoundTrip pins the publish-side batch form: same
// event records as the downstream batch, different tag and sequence
// meaning — and neither parser may accept the other's tag, or a
// misrouted frame would be silently re-interpreted.
func TestPBatchCodecRoundTrip(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvBlogShare, At: 11, Actor: 2, Target: 1, Aux: 3},
	}
	payload := AppendPBatch(nil, 7, events)
	bseq, got, ok := ParsePBatch(payload, nil)
	if !ok {
		t.Fatalf("pbatch rejected: %x", payload)
	}
	if bseq != 7 || len(got) != len(events) {
		t.Fatalf("bseq=%d n=%d, want 7/%d", bseq, len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], events[i])
		}
	}
	if b, n, ok := ParsePBatchBounds(payload); !ok || b != 7 || n != len(events) {
		t.Fatalf("pbatch bounds: bseq=%d n=%d ok=%v", b, n, ok)
	}
	if _, _, ok := ParseBatch(payload, nil); ok {
		t.Fatal("ParseBatch accepted a pbatch payload")
	}
	if _, _, ok := ParsePBatch(AppendBatch(nil, 7, events), nil); ok {
		t.Fatal("ParsePBatch accepted a batch payload")
	}
}

// TestCutoverRecordIsTheBrokers: a cutover record rides the feed's own
// frames — a batch carrying one parses, with and without decoding,
// NextCutover finds it, and
// every partition's fbatch view of it carries the record — but no
// producer can publish one: both pbatch parsers refuse it.
func TestCutoverRecordIsTheBrokers(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvCutover, Actor: 2, Target: 3},
	}
	batch := AppendBatch(nil, 40, events)
	if seq, got, ok := ParseBatch(batch, nil); !ok || seq != 40 || len(got) != 2 || got[1] != events[1] {
		t.Fatalf("batch with a cutover record: (%d, %+v, %v)", seq, got, ok)
	}
	if first, n, ok := ParseBatchBounds(batch); !ok || first != 40 || n != 2 {
		t.Fatalf("bounds of a batch with a cutover record: (%d, %d, %v)", first, n, ok)
	}
	if i, ev := NextCutover(batch, 0); i != 1 || ev != events[1] {
		t.Fatalf("NextCutover from 0 = (%d, %+v), want the record at 1", i, ev)
	}
	if i, _ := NextCutover(batch, 2); i != -1 {
		t.Fatalf("NextCutover past the record = %d, want -1", i)
	}
	if i, _ := NextCutover(AppendBatch(nil, 40, events[:1]), 0); i != -1 {
		t.Fatalf("NextCutover in a batch without one = %d, want -1", i)
	}
	for _, parts := range []int{2, 3, 5} {
		for part := 0; part < parts; part++ {
			view := SpliceFBatch(nil, 41, batch, Owned(nil, batch, part, parts))
			last, got, seqs, ok := ParseFBatch(view, nil, nil)
			if !ok || last != 41 || len(got) == 0 || got[len(got)-1] != events[1] || seqs[len(seqs)-1] != 41 {
				t.Fatalf("partition %d/%d's view: (%d, %+v, %v, %v), want the record at 41 last", part, parts, last, got, seqs, ok)
			}
		}
	}
	pbatch := AppendPBatch(nil, 7, events)
	if _, _, ok := ParsePBatch(pbatch, nil); ok {
		t.Fatal("ParsePBatch accepted a producer's cutover record")
	}
	if _, _, ok := ParsePBatchBounds(pbatch); ok {
		t.Fatal("ParsePBatchBounds accepted a producer's cutover record")
	}
}

// TestFriendshipRecordIsAProducers: a friendship record (the bootstrap
// history's edge, the highest type) rides a batch and a pbatch alike,
// every partition's view carries it, and NextCutover, which reads type
// bytes only, never takes it for the cutover record before it.
func TestFriendshipRecordIsAProducers(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendship, At: 1, Actor: 4, Target: 5},
		{Type: osn.EvFriendRequest, At: 2, Actor: 1, Target: 2},
		{Type: osn.EvFriendship, At: 3, Actor: 6, Target: 7},
	}
	batch := AppendBatch(nil, 10, events)
	if _, got, ok := ParseBatch(batch, nil); !ok || !slices.Equal(got, events) {
		t.Fatalf("batch with friendship records: (%+v, %v)", got, ok)
	}
	if _, got, ok := ParsePBatch(AppendPBatch(nil, 3, events), nil); !ok || !slices.Equal(got, events) {
		t.Fatalf("pbatch with friendship records: (%+v, %v)", got, ok)
	}
	if _, n, ok := ParsePBatchBounds(AppendPBatch(nil, 3, events)); !ok || n != 3 {
		t.Fatalf("pbatch bounds with friendship records: (%d, %v)", n, ok)
	}
	if i, ev := NextCutover(batch, 0); i != -1 {
		t.Fatalf("NextCutover in a batch of friendships = (%d, %+v), want -1", i, ev)
	}
	cut := AppendBatch(nil, 10, append(slices.Clone(events), osn.Event{Type: osn.EvCutover, Actor: 2, Target: 3}))
	if i, ev := NextCutover(cut, 0); i != 3 || ev.Type != osn.EvCutover {
		t.Fatalf("NextCutover past friendships = (%d, %+v), want the cutover at 3", i, ev)
	}
	for _, parts := range []int{2, 3} {
		for part := 0; part < parts; part++ {
			_, got, _, ok := ParseFBatch(SpliceFBatch(nil, 12, batch, Owned(nil, batch, part, parts)), nil, nil)
			if !ok || got[0] != events[0] || got[len(got)-1] != events[2] {
				t.Fatalf("partition %d/%d's view %+v misses a friendship", part, parts, got)
			}
		}
	}
}

// TestSuffixBatch pins the mid-frame splice: the suffix starting at
// any sequence inside a payload's run must be byte-identical to a fresh
// encode of the trailing events — this is what a resumed subscriber
// (and a relay adopting a straddling resend) receives as its first
// frame.
func TestSuffixBatch(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 10, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: 11, Actor: 2, Target: 1},
		{Type: osn.EvBlogShare, At: 12, Actor: 3, Target: 4, Aux: 9},
	}
	payload := AppendBatch(nil, 5, events)
	var scratch []byte
	for from := uint64(5); from <= 8; from++ {
		got, ok := SuffixBatch(scratch[:0], payload, from)
		if !ok {
			t.Fatalf("suffix from %d rejected", from)
		}
		if want := AppendBatch(nil, from, events[from-5:]); !bytes.Equal(got, want) {
			t.Fatalf("suffix from %d: %x, want %x", from, got, want)
		}
		scratch = got
	}
	if _, ok := SuffixBatch(nil, payload, 4); ok {
		t.Fatal("accepted a suffix before the frame's run")
	}
	if _, ok := SuffixBatch(nil, payload, 9); ok {
		t.Fatal("accepted a suffix past the frame's run")
	}
	if _, ok := SuffixBatch(nil, AppendPBatch(nil, 5, events), 6); ok {
		t.Fatal("accepted a pbatch payload")
	}
}

// TestParsersAcceptOnlyCanonical: the event frame parsers accept
// exactly what the encoders emit. Every field's extremes are accepted
// by the one parser for their tag and re-encode to the same bytes; a
// wrong tag, a length that is not exactly the header plus its count of
// records, and an event type this build does not know are refused by
// all three. So is every v2 JSON event frame, whatever it says — the
// v2 scanner's rejections are kept below as a corpus, along with its
// one accepted form: a payload opening with '{' is a control frame, and
// nothing a v2 encoder wrote decodes as events here.
func TestParsersAcceptOnlyCanonical(t *testing.T) {
	ban := func(ev osn.Event) []byte {
		ev.Type = osn.EvBan
		return AppendBatch(nil, 1, []osn.Event{ev})
	}
	plain := ban(osn.Event{At: 5, Actor: 1, Target: 2})
	set := func(p []byte, i int, b byte) []byte {
		p = bytes.Clone(p)
		p[i] = b
		return p
	}
	v2 := func(fields string) []byte {
		return []byte(`{"t":"batch","seq":1,"events":[{"type":"ban",` + fields + `}]}`)
	}
	const ids = `"actor":1,"target":2`
	for _, tc := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"plain", plain, true},
		{"int64 at extremes", ban(osn.Event{At: math.MinInt64, Actor: 1, Target: 2}), true},
		{"int64 at max", ban(osn.Event{At: math.MaxInt64, Actor: 1, Target: 2}), true},
		{"int32 id extremes", ban(osn.Event{Actor: math.MinInt32, Target: math.MaxInt32}), true},
		{"int32 aux extremes", ban(osn.Event{Actor: 1, Target: 2, Aux: math.MinInt32}), true},
		{"uint64 seq max", AppendBatch(nil, math.MaxUint64, nil), true},
		{"long seq", AppendPBatch(nil, 1234567890123, nil), true},
		{"fbatch extremes", AppendFBatch(nil, math.MaxUint64, []uint64{0},
			[]osn.Event{{Type: osn.EvMessage, At: -1, Aux: math.MaxInt32}}), true},
		{"every event type", AppendBatch(nil, 3, []osn.Event{{Type: 0}, {Type: 1}, {Type: 2}, {Type: 3}, {Type: 4}, {Type: 5}, {Type: 6}, {Type: 7}, {Type: 8}}), true},

		{"empty payload", nil, false},
		{"short header", plain[:12], false},
		{"unknown tag", set(plain, 0, 0x04), false},
		{"unknown event type", set(plain, 13, lastType+1), false},
		{"type byte 0xff", set(plain, 13, 0xff), false},
		{"record cut short", plain[:len(plain)-1], false},
		{"trailing byte", append(bytes.Clone(plain), 0), false},
		{"count past length", set(plain, 9, 2), false},
		{"count below length", set(plain, 9, 0), false},
		{"fbatch sized as batch", set(plain, 0, tagFBatch), false},

		{"v2 canonical", v2(`"at":5,` + ids), false},
		{"seq leading zero", []byte(`{"t":"batch","seq":01,"events":[]}`), false},
		{"bseq leading zero", []byte(`{"t":"pbatch","bseq":007,"events":[]}`), false},
		{"last leading zero", []byte(`{"t":"fbatch","last":00,"events":[]}`), false},
		{"fbatch seq leading zero", []byte(`{"t":"fbatch","last":9,"events":[{"seq":09,"type":"ban","at":0,"actor":0,"target":0}]}`), false},
		{"negative seq", []byte(`{"t":"batch","seq":-1,"events":[]}`), false},
		{"seq past uint64", []byte(`{"t":"batch","seq":18446744073709551616,"events":[]}`), false},
		{"seq of 21 digits", []byte(`{"t":"batch","seq":100000000000000000000,"events":[]}`), false},
		{"at leading zero", v2(`"at":007,` + ids), false},
		{"at minus zero", v2(`"at":-0,` + ids), false},
		{"at plus sign", v2(`"at":+5,` + ids), false},
		{"at bare minus", v2(`"at":-,` + ids), false},
		{"at past int64", v2(`"at":9223372036854775808,` + ids), false},
		{"at below int64", v2(`"at":-9223372036854775809,` + ids), false},
		{"actor past int32", v2(`"at":0,"actor":4294967297,"target":2`), false},
		{"actor just past int32", v2(`"at":0,"actor":2147483648,"target":2`), false},
		{"target below int32", v2(`"at":0,"actor":1,"target":-2147483649`), false},
		{"aux zero", v2(`"at":0,` + ids + `,"aux":0`), false},
		{"aux minus zero", v2(`"at":0,` + ids + `,"aux":-0`), false},
		{"aux past int32", v2(`"at":0,` + ids + `,"aux":2147483648`), false},
		{"exponent", v2(`"at":1e3,` + ids), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.payload
			var encs [][]byte
			seq, evs, bok := ParseBatch(p, nil)
			if _, _, ok := ParseBatchBounds(p); ok != bok {
				t.Errorf("ParseBatchBounds ok=%v, ParseBatch ok=%v", ok, bok)
			}
			if bok {
				encs = append(encs, AppendBatch(nil, seq, evs))
			}
			bseq, pevs, pok := ParsePBatch(p, nil)
			if _, _, ok := ParsePBatchBounds(p); ok != pok {
				t.Errorf("ParsePBatchBounds ok=%v, ParsePBatch ok=%v", ok, pok)
			}
			if pok {
				encs = append(encs, AppendPBatch(nil, bseq, pevs))
			}
			if last, fevs, seqs, fok := ParseFBatch(p, nil, nil); fok {
				encs = append(encs, AppendFBatch(nil, last, seqs, fevs))
			}
			want := 0
			if tc.ok {
				want = 1
			}
			if len(encs) != want {
				t.Fatalf("accepted by %d parsers, want %d: %q", len(encs), want, p)
			}
			for _, enc := range encs {
				if !bytes.Equal(enc, p) {
					t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", p, enc)
				}
			}
			if IsControl(p) != (len(p) > 0 && p[0] == '{') {
				t.Fatalf("IsControl(%q) = %v", p, IsControl(p))
			}
		})
	}
}
