package stream

// Fan-out equivalence: the single-encode broker must put exactly the
// canonical bytes on every socket. These tests capture raw frames with
// a minimal hand-rolled subscriber (no Client-side re-parsing
// tolerance) and assert that every data frame is byte-identical to a
// fresh canonical encode of its own decoded content — which pins the
// splice-merge paths to the encoder — that every subscriber sees the
// same gapless event stream, and that the number of canonical encodes
// performed is a function of the feed shape and the partitioned
// sessions, not of the full-feed subscriber count.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

// rawSub is a frame-capturing subscriber speaking just enough of the
// protocol to handshake and drain the feed to eof.
type rawSub struct {
	conn net.Conn
	br   *bufio.Reader
	from uint64 // welcome anchor: first sequence this subscriber will see

	frames [][]byte // every data frame payload, verbatim
}

func dialRawSub(t *testing.T, addr, session string, part, parts int) *rawSub {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := writeControl(bw, frame{T: frameHello, V: ProtocolVersion, Session: session, Part: part, Parts: parts}); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("raw welcome: %v", err)
	}
	var welcome frame
	if err := json.Unmarshal(payload, &welcome); err != nil || welcome.T != frameWelcome || welcome.Err != "" {
		t.Fatalf("raw welcome: %q", payload)
	}
	return &rawSub{conn: conn, br: br, from: welcome.From}
}

// drain reads frames until eof, keeping a verbatim copy of each data
// frame payload.
func (r *rawSub) drain() error {
	for {
		payload, err := readFrame(r.br, nil)
		if err != nil {
			return err
		}
		var f frame
		if json.Unmarshal(payload, &f) == nil && f.T == frameEOF {
			r.conn.Close()
			return nil
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		r.frames = append(r.frames, cp)
	}
}

// checkBatches asserts the subscriber's captured frames are all
// canonical batch payloads, byte-identical to a fresh encode of their
// decoded content, and that they concatenate to exactly want starting
// at r.from.
func (r *rawSub) checkBatches(t *testing.T, want []osn.Event) {
	t.Helper()
	next := r.from
	var got []osn.Event
	for i, payload := range r.frames {
		seq, evs, ok := wire.ParseBatch(payload, nil)
		if !ok {
			t.Fatalf("frame %d is not a canonical batch: %q", i, payload)
		}
		if reenc := wire.AppendBatch(nil, seq, evs); string(reenc) != string(payload) {
			t.Fatalf("frame %d diverges from the canonical encoder:\n%s\n%s", i, payload, reenc)
		}
		if seq != next {
			t.Fatalf("frame %d starts at seq %d, want %d", i, seq, next)
		}
		next = seq + uint64(len(evs))
		got = append(got, evs...)
	}
	if len(got) != len(want) {
		t.Fatalf("subscriber decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// checkFBatches asserts canonical fbatch frames with strictly
// ascending owned sequences, returning the (seq, event) pairs seen.
func (r *rawSub) checkFBatches(t *testing.T, part, parts int) map[uint64]osn.Event {
	t.Helper()
	owned := make(map[uint64]osn.Event)
	lastSeq := r.from - 1
	cursor := r.from - 1
	for i, payload := range r.frames {
		last, evs, seqs, ok := wire.ParseFBatch(payload, nil, nil)
		if !ok {
			t.Fatalf("frame %d is not a canonical fbatch: %q", i, payload)
		}
		if reenc := wire.AppendFBatch(nil, last, seqs, evs); string(reenc) != string(payload) {
			t.Fatalf("frame %d diverges from the canonical encoder:\n%s\n%s", i, payload, reenc)
		}
		if last < cursor {
			t.Fatalf("frame %d cursor went backward: %d after %d", i, last, cursor)
		}
		cursor = last
		for k, seq := range seqs {
			if seq <= lastSeq {
				t.Fatalf("frame %d event seq %d not ascending past %d", i, seq, lastSeq)
			}
			if seq > last {
				t.Fatalf("frame %d event seq %d above its cursor %d", i, seq, last)
			}
			if !osn.PartitionDelivers(evs[k], part, parts) {
				t.Fatalf("frame %d event %+v not owned by partition %d/%d", i, evs[k], part, parts)
			}
			lastSeq = seq
			owned[seq] = evs[k]
		}
	}
	return owned
}

// TestFanoutByteIdenticalAcrossSubscribers: N full-feed subscribers
// plus one subscriber per partition of a 4-way split, and one on
// partition 0 of a 2-way split, all drain the same broadcast feed; every frame must
// carry canonical bytes and every subscriber must see the identical
// event stream. The server's encode counter is exact: one batch frame
// per chunk, whatever the full-feed subscriber count, plus one view
// per (chunk, partitioned session) in which the session owns an event —
// each partitioned writer splices its own views.
func TestFanoutByteIdenticalAcrossSubscribers(t *testing.T) {
	leakCheck(t)
	const (
		maxBatch  = 16
		batchLen  = 56 // not a multiple of maxBatch: exercises short tail chunks
		batches   = 12
		partParts = 4
	)
	events := make([]osn.Event, 0, batches*batchLen)
	for i := 0; i < batches*batchLen; i++ {
		events = append(events, testEvent(i))
	}
	for _, subs := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			s, err := NewServer("127.0.0.1:0",
				withMaxBatch(maxBatch), WithReplayBuffer(len(events)+1))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// One session per partition, then one of another group shape
			// (a key has one session; its own writer splices its views).
			sessionKeys := []struct{ part, parts int }{{0, partParts}, {1, partParts}, {2, partParts}, {3, partParts}, {0, 2}}
			readers := make([]*rawSub, 0, subs+len(sessionKeys))
			for i := 0; i < subs; i++ {
				readers = append(readers, dialRawSub(t, s.Addr(), fmt.Sprintf("full-%d", i), 0, 0))
			}
			for i, k := range sessionKeys {
				readers = append(readers, dialRawSub(t, s.Addr(), fmt.Sprintf("part-%d", i), k.part, k.parts))
			}

			var wg sync.WaitGroup
			errs := make([]error, len(readers))
			for i, r := range readers {
				wg.Add(1)
				go func(i int, r *rawSub) {
					defer wg.Done()
					errs[i] = r.drain()
				}(i, r)
			}
			for off := 0; off < len(events); off += batchLen {
				s.BroadcastBatch(events[off : off+batchLen])
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("subscriber %d drain: %v", i, err)
				}
			}

			for _, r := range readers[:subs] {
				r.checkBatches(t, events)
			}
			// Delivery is exactly-one-plus-support (friend events also
			// reach the counterpart's partition), so partitions may
			// overlap — but they must agree, and jointly cover the feed.
			union := make(map[uint64]osn.Event)
			for part := 0; part < partParts; part++ {
				for seq, ev := range readers[subs+part].checkFBatches(t, part, partParts) {
					if prev, dup := union[seq]; dup && prev != ev {
						t.Fatalf("seq %d delivered divergently: %+v vs %+v", seq, prev, ev)
					}
					union[seq] = ev
				}
			}
			if len(union) != len(events) {
				t.Fatalf("partitions jointly delivered %d events, want %d", len(union), len(events))
			}
			for seq, ev := range union {
				if want := events[seq-1]; ev != want {
					t.Fatalf("seq %d: %+v, want %+v", seq, ev, want)
				}
			}
			half := readers[subs+partParts].checkFBatches(t, 0, 2)
			for i, ev := range events {
				if _, got := half[uint64(i+1)]; got != osn.PartitionDelivers(ev, 0, 2) {
					t.Fatalf("session on 0/2: seq %d delivered = %v, the contract says %v", i+1, got, !got)
				}
			}

			// One encode per chunk, plus one view per (chunk, partitioned
			// session) in which that session owns an event.
			want := 0
			for off := 0; off < len(events); off += batchLen {
				for lo := off; lo < off+batchLen; lo += maxBatch {
					want++
					for _, k := range sessionKeys {
						if slices.ContainsFunc(events[lo:min(lo+maxBatch, off+batchLen)], func(ev osn.Event) bool {
							return osn.PartitionDelivers(ev, k.part, k.parts)
						}) {
							want++
						}
					}
				}
			}
			if enc := s.Stats().Encodes; enc != uint64(want) {
				t.Fatalf("encodes = %d with %d full-feed subscribers, want %d", enc, subs, want)
			}
		})
	}
}
