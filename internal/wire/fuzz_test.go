package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// The wire codecs face two distinct adversaries: the encoders (round
// trips must be lossless for every representable value) and corrupt
// bytes off a socket or a damaged spool segment (parsers must return
// ok=false or an error, never panic or misallocate). Each fuzz target
// exercises both with the same input: the raw bytes are thrown at the
// parser directly, then reinterpreted as a deterministic event
// generator whose output is encoded and parsed back.

// fuzzEvents derives events (and ascending sparse global sequences)
// from fuzz bytes, 16 bytes per event, covering every event type a
// producer may publish and the full id/time/aux ranges including
// negatives and zero aux.
func fuzzEvents(data []byte) ([]osn.Event, []uint64) {
	var evs []osn.Event
	var seqs []uint64
	var seq uint64
	for len(data) >= 16 {
		c := data[:16]
		data = data[16:]
		seq += 1 + uint64(c[0]%7)
		typ := osn.EventType(c[1] % 8)
		if typ == osn.EvCutover {
			typ = osn.EvFriendship
		}
		evs = append(evs, osn.Event{
			Type:   typ,
			At:     sim.Time(int64(int32(binary.LittleEndian.Uint32(c[2:6])))),
			Actor:  osn.AccountID(binary.LittleEndian.Uint32(c[6:10])),
			Target: osn.AccountID(binary.LittleEndian.Uint32(c[10:14])),
			Aux:    int32(int16(binary.LittleEndian.Uint16(c[14:16]))),
		})
		seqs = append(seqs, seq)
	}
	return evs, seqs
}

// fuzzSeedEvents are the events the hand-written seeds carry: every
// type a producer may publish, and each field at its extremes.
var fuzzSeedEvents = []osn.Event{
	{Type: osn.EvFriendRequest, At: 60, Actor: 1, Target: 99999},
	{Type: osn.EvFriendAccept, At: 61, Actor: 99999, Target: 1},
	{Type: osn.EvFriendReject, At: -1, Actor: -2147483648, Target: 2147483647},
	{Type: osn.EvMessage, At: 9223372036854775807, Actor: 3, Target: 4, Aux: -3},
	{Type: osn.EvBan, At: -9223372036854775808, Target: -2147483648},
	{Type: osn.EvBlogPost, Actor: 5, Aux: 2147483647},
	{Type: osn.EvBlogShare, At: 62, Actor: 2147483647, Target: 5, Aux: -2147483648},
	{Type: osn.EvFriendship, At: 63, Actor: 6, Target: 7},
}

// unknownType returns payload with the type byte of its first record
// (after skip bytes of the record's own sequence) set past the last
// known type: a frame of the right shape that must be refused.
func unknownType(payload []byte, skip int) []byte {
	p := bytes.Clone(payload)
	p[headerSize+skip] = lastType + 1
	return p
}

func FuzzBatch(f *testing.F) {
	f.Add(AppendBatch(nil, 1, nil))
	f.Add(AppendBatch(nil, 42, fuzzSeedEvents))
	f.Add([]byte(`{"t":"batch","seq":1,"events":[]}`))
	f.Add(unknownType(AppendBatch(nil, 1, fuzzSeedEvents[:2]), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt input: must not panic, and whatever is accepted must be
		// exactly what the encoder emits for the values it decoded to.
		seq, evs, ok := ParseBatch(data, nil)
		if first, n, bok := ParseBatchBounds(data); bok != ok || ok && (first != seq || n != len(evs)) {
			t.Fatalf("bounds (%d, %d, %v) disagree with the parser (%d, %d, %v) on %x", first, n, bok, seq, len(evs), ok, data)
		}
		if ok {
			if enc := AppendBatch(nil, seq, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a batch its encoder does not emit: %x re-encodes as %x", data, enc)
			}
		}
		// Generator round trip.
		evs, _ = fuzzEvents(data)
		seq = uint64(len(data))
		enc := AppendBatch(nil, seq, evs)
		seq2, evs2, ok := ParseBatch(enc, nil)
		if !ok || seq2 != seq || !slices.Equal(evs2, evs) {
			t.Fatalf("batch round trip lost events: %d on wire as %x", len(evs), enc)
		}
	})
}

func FuzzPBatch(f *testing.F) {
	f.Add(AppendPBatch(nil, 9, nil))
	f.Add(AppendPBatch(nil, 3, []osn.Event{{Type: osn.EvBan, Target: 8}}))
	f.Add([]byte(`{"t":"pbatch","bseq":1,"events":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		bseq, evs, ok := ParsePBatch(data, nil)
		if b, n, bok := ParsePBatchBounds(data); bok != ok || ok && (b != bseq || n != len(evs)) {
			t.Fatalf("bounds (%d, %d, %v) disagree with the parser (%d, %d, %v) on %x", b, n, bok, bseq, len(evs), ok, data)
		}
		if ok {
			if enc := AppendPBatch(nil, bseq, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a pbatch its encoder does not emit: %x re-encodes as %x", data, enc)
			}
		}
		evs, _ = fuzzEvents(data)
		bseq = uint64(len(data)) * 3
		enc := AppendPBatch(nil, bseq, evs)
		bseq2, evs2, ok := ParsePBatch(enc, nil)
		if !ok || bseq2 != bseq || !slices.Equal(evs2, evs) {
			t.Fatalf("pbatch round trip lost events: %d on wire as %x", len(evs), enc)
		}
	})
}

func FuzzFBatch(f *testing.F) {
	f.Add(AppendFBatch(nil, 5, nil, nil))
	f.Add(AppendFBatch(nil, 12, []uint64{3, 12}, fuzzSeedEvents[:2]))
	f.Add(unknownType(AppendFBatch(nil, 5, []uint64{5}, fuzzSeedEvents[:1]), 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if last, evs, seqs, ok := ParseFBatch(data, nil, nil); ok {
			if len(evs) != len(seqs) {
				t.Fatalf("accepted fbatch with %d events but %d seqs", len(evs), len(seqs))
			}
			if enc := AppendFBatch(nil, last, seqs, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted an fbatch its encoder does not emit: %x re-encodes as %x", data, enc)
			}
		}
		evs, seqs := fuzzEvents(data)
		var last uint64
		if n := len(seqs); n > 0 {
			last = seqs[n-1] + uint64(len(data)%3)
		}
		enc := AppendFBatch(nil, last, seqs, evs)
		last2, evs2, seqs2, ok := ParseFBatch(enc, nil, nil)
		if !ok || last2 != last || !slices.Equal(evs2, evs) || !slices.Equal(seqs2, seqs) {
			t.Fatalf("fbatch round trip lost events: %d on wire as %x", len(evs), enc)
		}
	})
}

// FuzzSplice holds the broker's splices to the encoders they stand in
// for. The root splices a pbatch's records, cut into runs of at most 3
// events (a small maxBatch, so cuts happen), under batch headers; each
// run must equal AppendBatch over the decoded events. Each root frame
// is then checked again, as a relay would, and every partition view of
// it for K ∈ {2, 3} must equal AppendFBatch over the partition's
// filtered decode. Raw input feeds the chain when it parses as a
// pbatch; the event generator's encoding always does.
func FuzzSplice(f *testing.F) {
	f.Add(AppendPBatch(nil, 1, nil))
	f.Add(AppendPBatch(nil, 7, fuzzSeedEvents))
	f.Add(unknownType(AppendPBatch(nil, 2, fuzzSeedEvents[4:5]), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _ := fuzzEvents(data)
		payloads := [][]byte{data, AppendPBatch(nil, uint64(len(data)), evs)}
		for i, p := range payloads {
			bseq, evs, ok := ParsePBatch(p, nil)
			_, n, bok := ParsePBatchBounds(p)
			if ok != bok || n != len(evs) {
				t.Fatalf("pbatch %x: parse ok=%v (%d events), bounds ok=%v (%d events)", p, ok, len(evs), bok, n)
			}
			if !ok {
				if i > 0 {
					t.Fatalf("generated pbatch rejected: %x", p)
				}
				continue
			}
			first := bseq % 1000 // any feed position will do
			for off := 0; off < n; off += 3 {
				end := min(off+3, n)
				seq := first + uint64(off)
				frame := SpliceBatch(nil, seq, p, off, end)
				if want := AppendBatch(nil, seq, evs[off:end]); !bytes.Equal(frame, want) {
					t.Fatalf("root splice of %x [%d:%d]:\n%x\nwant %x", p, off, end, frame, want)
				}
				if len(frame) != cap(frame) {
					t.Fatalf("root splice of %x [%d:%d]: len %d, cap %d: the payload is not sized exactly", p, off, end, len(frame), cap(frame))
				}
				checkViews(t, frame, seq, evs[off:end])
			}
		}
	})
}

// checkViews checks a batch frame as a relay does and holds each of its
// partition views, K ∈ {2, 3}, to AppendFBatch over the filtered events
// it should carry.
func checkViews(t *testing.T, frame []byte, first uint64, evs []osn.Event) {
	t.Helper()
	seq, n, ok := ParseBatchBounds(frame)
	if !ok || seq != first || n != len(evs) {
		t.Fatalf("bounds of %x: seq=%d n=%d ok=%v, want %d/%d/true", frame, seq, n, ok, first, len(evs))
	}
	last := first + uint64(len(evs)) // a cursor past the events, as after a flush
	for parts := 2; parts <= 3; parts++ {
		for part := 0; part < parts; part++ {
			var want []int
			var seqs []uint64
			var keep []osn.Event
			for k, ev := range evs {
				if osn.PartitionDelivers(ev, part, parts) {
					want = append(want, k)
					seqs = append(seqs, first+uint64(k))
					keep = append(keep, ev)
				}
			}
			own := Owned(nil, frame, part, parts)
			if !slices.Equal(own, want) {
				t.Fatalf("partition %d/%d of %x owns %v, want %v", part, parts, frame, own, want)
			}
			view := SpliceFBatch(nil, last, frame, own)
			if want := AppendFBatch(nil, last, seqs, keep); !bytes.Equal(view, want) {
				t.Fatalf("view %d/%d of %x:\n%x\nwant %x", part, parts, frame, view, want)
			}
			if len(view) != cap(view) {
				t.Fatalf("view %d/%d of %x: len %d, cap %d: the payload is not sized exactly", part, parts, frame, len(view), cap(view))
			}
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendFrame(nil, AppendBatch(nil, 1, fuzzSeedEvents[:1])))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A corrupt length prefix must produce an error (or a short
		// read), never a panic or a trusting allocation; an accepted
		// frame must round trip through AppendFrame.
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err == nil {
			re, err := ReadFrame(bytes.NewReader(AppendFrame(nil, payload)), nil)
			if err != nil || !bytes.Equal(re, payload) {
				t.Fatalf("frame round trip: %q -> %q, %v", payload, re, err)
			}
		}
		// A tiny limit turns any announced size above it into an
		// error before any payload byte is read.
		if _, err := ReadFrameLimit(bytes.NewReader(data), nil, 8); err == nil && len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data[:4]); n > 8 {
				t.Fatalf("limit 8 accepted a %d-byte frame", n)
			}
		}
	})
}
