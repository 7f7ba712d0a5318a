package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// The wire codecs face two distinct adversaries: the canonical
// encoders (round trips must be lossless for every representable
// value) and corrupt bytes off a socket or a damaged spool segment
// (parsers must return ok=false or an error, never panic or
// misallocate). Each fuzz target exercises both with the same input:
// the raw bytes are thrown at the parser directly, then reinterpreted
// as a deterministic event generator whose output is encoded and
// parsed back.

// fuzzEvents derives events (and ascending sparse global sequences)
// from fuzz bytes, 16 bytes per event, covering every event type and
// the full id/time/aux ranges including negatives and zero aux.
func fuzzEvents(data []byte) ([]osn.Event, []uint64) {
	var evs []osn.Event
	var seqs []uint64
	var seq uint64
	for len(data) >= 16 {
		c := data[:16]
		data = data[16:]
		seq += 1 + uint64(c[0]%7)
		evs = append(evs, osn.Event{
			Type:   osn.EventType(c[1] % 7),
			At:     sim.Time(int64(int32(binary.LittleEndian.Uint32(c[2:6])))),
			Actor:  osn.AccountID(binary.LittleEndian.Uint32(c[6:10])),
			Target: osn.AccountID(binary.LittleEndian.Uint32(c[10:14])),
			Aux:    int32(int16(binary.LittleEndian.Uint16(c[14:16]))),
		})
		seqs = append(seqs, seq)
	}
	return evs, seqs
}

func eventsEqual(a, b []osn.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzBatch(f *testing.F) {
	f.Add([]byte(`{"t":"batch","seq":1,"events":[]}`))
	f.Add(AppendBatch(nil, 42, []osn.Event{
		{Type: osn.EvFriendRequest, At: 7, Actor: 1, Target: 2},
		{Type: osn.EvBlogShare, At: -3, Actor: 4, Target: 5, Aux: -9},
	}))
	f.Add([]byte(`{"t":"batch","seq":01,"events":[]}`))
	f.Add([]byte(`{"t":"batch","seq":1,"events":[{"type":"warp"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupt input: must not panic, and whatever is accepted must be
		// exactly what the encoder emits for the values it decoded to.
		if seq, evs, ok := ParseBatch(data, nil); ok {
			if enc := AppendBatch(nil, seq, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a batch its encoder does not emit: %q re-encodes as %q", data, enc)
			}
		}
		// Generator round trip.
		evs, _ := fuzzEvents(data)
		seq := uint64(len(data))
		enc := AppendBatch(nil, seq, evs)
		seq2, evs2, ok := ParseBatch(enc, nil)
		if !ok || seq2 != seq || !eventsEqual(evs2, evs) {
			t.Fatalf("batch round trip lost events: %d on wire as %q", len(evs), enc)
		}
	})
}

func FuzzPBatch(f *testing.F) {
	f.Add([]byte(`{"t":"pbatch","bseq":9,"events":[]}`))
	f.Add(AppendPBatch(nil, 3, []osn.Event{{Type: osn.EvBan, Target: 8}}))
	f.Add([]byte(`{"t":"pbatch","bseq":-1,"events":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if bseq, evs, ok := ParsePBatch(data, nil); ok {
			if enc := AppendPBatch(nil, bseq, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a pbatch its encoder does not emit: %q re-encodes as %q", data, enc)
			}
		}
		evs, _ := fuzzEvents(data)
		bseq := uint64(len(data)) * 3
		enc := AppendPBatch(nil, bseq, evs)
		bseq2, evs2, ok := ParsePBatch(enc, nil)
		if !ok || bseq2 != bseq || !eventsEqual(evs2, evs) {
			t.Fatalf("pbatch round trip lost events: %d on wire as %q", len(evs), enc)
		}
	})
}

func FuzzFBatch(f *testing.F) {
	f.Add([]byte(`{"t":"fbatch","last":5,"events":[]}`))
	f.Add(AppendFBatch(nil, 12, []uint64{3, 12}, []osn.Event{
		{Type: osn.EvFriendAccept, At: 1, Actor: 2, Target: 3},
		{Type: osn.EvMessage, At: 4, Actor: 5, Target: 6, Aux: 7},
	}))
	f.Add([]byte(`{"t":"fbatch","last":5,"events":[{"seq":-2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if last, evs, seqs, ok := ParseFBatch(data, nil, nil); ok {
			if len(evs) != len(seqs) {
				t.Fatalf("accepted fbatch with %d events but %d seqs", len(evs), len(seqs))
			}
			if enc := AppendFBatch(nil, last, seqs, evs); !bytes.Equal(enc, data) {
				t.Fatalf("accepted an fbatch its encoder does not emit: %q re-encodes as %q", data, enc)
			}
		}
		evs, seqs := fuzzEvents(data)
		var last uint64
		if n := len(seqs); n > 0 {
			last = seqs[n-1] + uint64(len(data)%3)
		}
		enc := AppendFBatch(nil, last, seqs, evs)
		last2, evs2, seqs2, ok := ParseFBatch(enc, nil, nil)
		if !ok || last2 != last || !eventsEqual(evs2, evs) || !seqsEqual(seqs2, seqs) {
			t.Fatalf("fbatch round trip lost events: %d on wire as %q", len(evs), enc)
		}
	})
}

// FuzzSplice holds the broker's two splices to the encoders they stand
// in for. The root splices a canonical pbatch's event bytes, cut into
// runs of at most 3 events (a small maxBatch, so cuts happen), under
// batch headers; each run must equal AppendBatch over the decoded
// events. Each root frame is then indexed again, as a relay would, and
// every partition view of it for K ∈ {2, 3} must equal AppendFBatch
// over the partition's filtered decode. Raw input feeds the chain when
// it parses as a pbatch; the event generator's encoding always does.
func FuzzSplice(f *testing.F) {
	f.Add([]byte(`{"t":"pbatch","bseq":1,"events":[]}`))
	f.Add(AppendPBatch(nil, 7, []osn.Event{
		{Type: osn.EvFriendRequest, At: 60, Actor: 1, Target: 99999},
		{Type: osn.EvFriendAccept, At: 61, Actor: 99999, Target: 1},
		{Type: osn.EvBan, At: -1, Target: -2147483648},
		{Type: osn.EvBlogShare, At: 9223372036854775807, Actor: 2147483647, Target: 5, Aux: -3},
	}))
	f.Add([]byte(`{"t":"pbatch","bseq":2,"events":[{"type":"ban","at":1,"actor":0,"target":0,"aux":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _ := fuzzEvents(data)
		payloads := [][]byte{data, AppendPBatch(nil, uint64(len(data)), evs)}
		for i, p := range payloads {
			bseq, evs, ok := ParsePBatch(p, nil)
			_, refs, iok := IndexPBatch(p, nil)
			if ok != iok || len(refs) != len(evs) {
				t.Fatalf("pbatch %q: parse ok=%v (%d events), index ok=%v (%d events)", p, ok, len(evs), iok, len(refs))
			}
			if !ok {
				if i > 0 {
					t.Fatalf("generated pbatch rejected: %q", p)
				}
				continue
			}
			first := bseq % 1000 // any feed position will do
			for off := 0; off < len(refs); off += 3 {
				end := min(off+3, len(refs))
				seq := first + uint64(off)
				frame := SpliceBatch(nil, seq, p, refs[off:end])
				if want := AppendBatch(nil, seq, evs[off:end]); !bytes.Equal(frame, want) {
					t.Fatalf("root splice of %q [%d:%d]:\n%s\nwant %s", p, off, end, frame, want)
				}
				if len(frame) != cap(frame) {
					t.Fatalf("root splice of %q [%d:%d]: len %d, cap %d: the payload is not sized exactly", p, off, end, len(frame), cap(frame))
				}
				checkViews(t, frame, seq, evs[off:end])
			}
		}
	})
}

// checkViews indexes a canonical batch frame and holds each of its
// partition views, K ∈ {2, 3}, to AppendFBatch over the filtered
// events it should carry.
func checkViews(t *testing.T, frame []byte, first uint64, evs []osn.Event) {
	t.Helper()
	seq, refs, ok := IndexBatch(frame, nil)
	if !ok || seq != first || len(refs) != len(evs) {
		t.Fatalf("index of %q: seq=%d n=%d ok=%v, want %d/%d/true", frame, seq, len(refs), ok, first, len(evs))
	}
	last := first + uint64(len(evs)) // a cursor past the events, as after a flush
	for parts := 2; parts <= 3; parts++ {
		for part := 0; part < parts; part++ {
			var own []int
			var seqs []uint64
			var keep []osn.Event
			for k, ev := range evs {
				r := refs[k]
				if r.Type != ev.Type || r.Actor != ev.Actor || r.Target != ev.Target {
					t.Fatalf("index of %q, event %d: %+v, decoded %+v", frame, k, r, ev)
				}
				if osn.PartitionDelivers(ev, part, parts) {
					own = append(own, k)
					seqs = append(seqs, first+uint64(k))
					keep = append(keep, ev)
				}
			}
			view := SpliceFBatch(nil, last, frame, first, refs, own)
			if want := AppendFBatch(nil, last, seqs, keep); !bytes.Equal(view, want) {
				t.Fatalf("view %d/%d of %q:\n%s\nwant %s", part, parts, frame, view, want)
			}
			if len(view) != cap(view) {
				t.Fatalf("view %d/%d of %q: len %d, cap %d: the payload is not sized exactly", part, parts, frame, len(view), cap(view))
			}
		}
	}
}

func FuzzSnapHeader(f *testing.F) {
	f.Add([]byte(`{"t":"snap","part":0,"parts":1,"seq":0,"size":0}`))
	f.Add(AppendSnapHeader(nil, SnapHeader{Part: 2, Parts: 5, Seq: 900, Size: 1 << 20}))
	f.Add([]byte(`{"t":"snap","part":3,"parts":2,"seq":1,"size":1}`))
	f.Add([]byte(`{"t":"snap","part":0,"parts":1,"seq":1,"size":99999999999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, ok := ParseSnapHeader(data); ok {
			if h.Parts < 1 || h.Part < 0 || h.Part >= h.Parts || h.Size > MaxSnapshotSize {
				t.Fatalf("parser accepted out-of-contract header %+v from %q", h, data)
			}
			if enc := AppendSnapHeader(nil, h); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a snap header its encoder does not emit: %q re-encodes as %q", data, enc)
			}
		}
		// Generator round trip over normalized-valid headers.
		if len(data) >= 18 {
			h := SnapHeader{
				Parts: 1 + int(data[0]%64),
				Seq:   binary.LittleEndian.Uint64(data[2:10]),
				Size:  binary.LittleEndian.Uint64(data[10:18]) % (MaxSnapshotSize + 1),
			}
			h.Part = int(data[1]) % h.Parts
			enc := AppendSnapHeader(nil, h)
			h2, ok := ParseSnapHeader(enc)
			if !ok || h2 != h {
				t.Fatalf("snap header round trip: %+v on wire as %q gave %+v", h, enc, h2)
			}
		}
	})
}

func FuzzRebal(f *testing.F) {
	f.Add([]byte(`{"t":"rebal","barrier":0,"parts":2,"nparts":1}`))
	f.Add(AppendRebal(nil, Rebal{Barrier: 12345, Parts: 3, NParts: 5}))
	f.Add([]byte(`{"t":"rebal","barrier":7,"parts":4,"nparts":4}`))
	f.Add([]byte(`{"t":"rebal","barrier":7,"parts":1,"nparts":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, ok := ParseRebal(data); ok {
			if r.Parts < 2 || r.NParts < 1 || r.Parts == r.NParts {
				t.Fatalf("parser accepted out-of-contract rebal %+v from %q", r, data)
			}
			if enc := AppendRebal(nil, r); !bytes.Equal(enc, data) {
				t.Fatalf("accepted a rebal its encoder does not emit: %q re-encodes as %q", data, enc)
			}
		}
		// Generator round trip over normalized-valid announcements.
		if len(data) >= 10 {
			r := Rebal{
				Barrier: binary.LittleEndian.Uint64(data[2:10]),
				Parts:   2 + int(data[0]%64),
			}
			r.NParts = 1 + int(data[1])%128
			if r.NParts == r.Parts {
				r.NParts++
			}
			enc := AppendRebal(nil, r)
			r2, ok := ParseRebal(enc)
			if !ok || r2 != r {
				t.Fatalf("rebal round trip: %+v on wire as %q gave %+v", r, enc, r2)
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendFrame(nil, []byte(`{"t":"batch","seq":1,"events":[]}`)))
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
