package wire

import (
	"bytes"
	"testing"

	"sybilwild/internal/osn"
)

// TestFBatchCodecRoundTrip pins the filtered-batch form: per-event
// global sequences (sparse), a cursor "last" that may exceed the final
// event's sequence, and the empty frame (a pure cursor advance). None
// of the three parsers may accept another's tag.
func TestFBatchCodecRoundTrip(t *testing.T) {
	events := []osn.Event{
		{Type: osn.EvFriendRequest, At: 0, Actor: 1, Target: 2},
		{Type: osn.EvFriendAccept, At: -5, Actor: 3, Target: 4, Aux: 9},
		{Type: osn.EvMessage, At: 1 << 40, Actor: -7, Target: 0},
	}
	seqs := []uint64{3, 9, 10}
	payload := AppendFBatch(nil, 14, seqs, events)
	if len(payload) != 13+29*len(events) {
		t.Fatalf("fbatch of %d events is %d bytes, want %d", len(events), len(payload), 13+29*len(events))
	}
	last, gotEvs, gotSeqs, ok := ParseFBatch(payload, nil, nil)
	if !ok {
		t.Fatalf("fbatch rejected: %x", payload)
	}
	if last != 14 || len(gotEvs) != len(events) || len(gotSeqs) != len(seqs) {
		t.Fatalf("last=%d nev=%d nseq=%d, want 14/%d/%d", last, len(gotEvs), len(gotSeqs), len(events), len(seqs))
	}
	for i := range events {
		if gotEvs[i] != events[i] || gotSeqs[i] != seqs[i] {
			t.Fatalf("event %d: %+v seq %d, want %+v seq %d", i, gotEvs[i], gotSeqs[i], events[i], seqs[i])
		}
	}
	if _, _, _, ok := ParseFBatch(payload[:len(payload)-1], nil, nil); ok {
		t.Fatal("truncated fbatch accepted")
	}
	if _, _, ok := ParseBatch(payload, nil); ok {
		t.Fatal("ParseBatch accepted an fbatch payload")
	}
	if _, _, _, ok := ParseFBatch(AppendBatch(nil, 14, events), nil, nil); ok {
		t.Fatal("ParseFBatch accepted a batch payload")
	}
}

// TestFBatchEmptyAdvance: an fbatch with no events is legal — it is
// how the broker moves a partitioned subscriber's cursor past a run
// of foreign events without sending them.
func TestFBatchEmptyAdvance(t *testing.T) {
	payload := AppendFBatch(nil, 1234, nil, nil)
	last, evs, seqs, ok := ParseFBatch(payload, nil, nil)
	if !ok || last != 1234 || len(evs) != 0 || len(seqs) != 0 {
		t.Fatalf("empty fbatch: ok=%v last=%d nev=%d nseq=%d", ok, last, len(evs), len(seqs))
	}
}

// TestFBatchEventsSectionSplice pins the fbatch join contract: because
// every record carries its own global sequence, joining the event
// sections of consecutive views under a fresh header carrying the
// FINAL frame's cursor must reproduce AppendFBatch over the
// concatenated (seqs, events), byte for byte — what lets a writer
// coalesce shared partitioned frames with a copy instead of a
// re-encode. A pure cursor advance contributes nothing.
func TestFBatchEventsSectionSplice(t *testing.T) {
	aEvs := []osn.Event{
		{Type: osn.EvFriendRequest, At: 1, Actor: 1, Target: 2},
		{Type: osn.EvMessage, At: 2, Actor: 2, Target: 1, Aux: 5},
	}
	aSeqs := []uint64{3, 7}
	bEvs := []osn.Event{
		{Type: osn.EvBan, At: 3, Actor: -1, Target: 4},
	}
	bSeqs := []uint64{11}
	fa := AppendFBatch(nil, 8, aSeqs, aEvs)
	fb := AppendFBatch(nil, 13, bSeqs, bEvs)
	want := AppendFBatch(nil, 13,
		append(append([]uint64{}, aSeqs...), bSeqs...),
		append(append([]osn.Event{}, aEvs...), bEvs...))
	if got := Join(nil, 13, fa, fb); !bytes.Equal(got, want) {
		t.Fatalf("join diverges from fresh encode:\n%x\n%x", got, want)
	}
	if got := Join(nil, 13, fa, AppendFBatch(nil, 9, nil, nil), fb); !bytes.Equal(got, want) {
		t.Fatalf("join across a cursor advance diverges:\n%x\n%x", got, want)
	}
}
