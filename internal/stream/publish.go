package stream

// This file is the broker half of the publish sub-protocol: the
// server-side ingest path that admits wire producers, fences their
// epochs, deduplicates reconnect replays by per-producer batch
// sequence, and runs every accepted batch through the single global
// sequencer — so K concurrent producers interleave into one totally
// ordered feed whose downstream frames, ring, and spool are
// byte-compatible with a single in-process Broadcast caller. The
// producer-side counterpart is Publisher (publisher.go); the frame
// vocabulary is in wire.go.

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"

	"encoding/json"

	"sybilwild/internal/osn"
)

// producerState is one wire producer's broker-side registration. It
// survives connection loss (same-epoch reconnects keep the batch
// sequence for dedupe) and process restart (a new epoch resets the
// batch sequence; the durable event count tells the deterministic
// producer where to resume). All fields are guarded by Server.mu.
type producerState struct {
	id    string
	epoch uint64 // current epoch; connections from older epochs are fenced
	bseq  uint64 // highest batch sequence sequenced in the current epoch

	batches uint64 // batches sequenced, all epochs
	events  uint64 // events sequenced, all epochs — the restart resume cursor
	dups    uint64 // replayed batches dropped by dedupe

	eof  bool // epoch closed for good; counts toward feed completion
	conn net.Conn
}

// ProducerStats is one wire producer's ingest accounting.
type ProducerStats struct {
	ID          string
	Connected   bool
	Epoch       uint64 // current epoch (increments on process restart)
	Batches     uint64 // batches sequenced across all epochs
	Events      uint64 // events sequenced across all epochs
	DedupeDrops uint64 // replayed batches dropped (reconnect resends)
	EOF         bool   // producer closed its epoch; no more events expected
}

// errFenced means a newer connection or epoch superseded this one; the
// stale connection must stop without touching producer state.
var errFenced = errors.New("stream: producer connection fenced by a newer one")

// IngestDone returns a channel closed once every producer in the
// declared group has closed its epoch (sent peof) — the broker's cue
// that the feed is complete and Close may drain subscribers and emit
// eof downstream. It never closes on a server that admits no wire
// producers.
func (s *Server) IngestDone() <-chan struct{} { return s.ingestDone }

// NumProducers returns the number of currently connected wire
// producers.
func (s *Server) NumProducers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.producers {
		if p.conn != nil {
			n++
		}
	}
	return n
}

// servePublisher admits a wire producer and runs its ingest loop:
// pbatch frames are deduplicated, sequenced, and acked in arrival
// order; peof closes the producer's epoch. Runs on the connection's
// accept goroutine; the broker only ever writes to a producer from
// this loop, so no separate writer goroutine is needed.
func (s *Server) servePublisher(conn net.Conn, br *bufio.Reader, hello frame, buf []byte) {
	p, epoch, ackB, count, reject := s.admitProducer(hello, conn)
	if reject != "" {
		writeControl(conn, frame{T: framePWelcome, V: ProtocolVersion, Err: reject})
		conn.Close()
		return
	}
	if err := writeControl(conn, frame{T: framePWelcome, V: ProtocolVersion,
		Epoch: epoch, Bseq: ackB, Count: count}); err != nil {
		s.detachProducer(p, conn)
		return
	}

	bw := bufio.NewWriterSize(conn, 4<<10)
	var evbuf []osn.Event
	var enc []byte // canonical-encode scratch, owned by this connection
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			s.detachProducer(p, conn)
			return
		}
		buf = payload
		bseq, evs, ok := parsePBatchFrame(payload, evbuf[:0])
		if !ok {
			// Control frame, or a pbatch from a non-canonical encoder.
			var f frame
			if err := json.Unmarshal(payload, &f); err != nil {
				log.Printf("stream: producer %s sent a bad frame: %v", p.id, err)
				s.detachProducer(p, conn)
				return
			}
			switch f.T {
			case framePEOF:
				s.closeEpoch(p)
				writeControl(bw, frame{T: framePEOF})
				bw.Flush()
				continue // producer hangs up once it reads the confirmation
			case framePBatch:
				bseq, evs, err = parsePBatchSlow(payload, evbuf[:0])
				if err != nil {
					log.Printf("stream: producer %s: %v", p.id, err)
					s.detachProducer(p, conn)
					return
				}
			default:
				log.Printf("stream: producer %s sent unexpected %q frame", p.id, f.T)
				s.detachProducer(p, conn)
				return
			}
		}
		evbuf = evs[:0]
		ack, err := s.ingest(p, conn, epoch, bseq, evs, &enc)
		if err != nil {
			if !errors.Is(err, errFenced) {
				log.Printf("stream: producer %s batch %d rejected: %v", p.id, bseq, err)
			}
			s.detachProducer(p, conn)
			return
		}
		if writeControl(bw, frame{T: framePAck, Bseq: ack}) != nil || bw.Flush() != nil {
			s.detachProducer(p, conn)
			return
		}
	}
}

// admitProducer registers (or re-attaches) the producer named in the
// phello under the epoch rules: epoch 0 requests a fresh epoch (a
// restarted process), a matching current epoch re-attaches (a
// reconnect), anything else is fenced off. It returns the producer,
// the granted epoch, the highest batch sequence already sequenced in
// it, and the total events durably sequenced from this producer — or
// a rejection reason.
func (s *Server) admitProducer(hello frame, conn net.Conn) (p *producerState, epoch, ackB, count uint64, reject string) {
	if hello.Producer == "" || hello.Producers < 1 {
		return nil, 0, 0, 0, "malformed phello (producer id and group size required)"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, 0, 0, 0, "server closing"
	}
	if s.expectProducers == 0 {
		s.expectProducers = hello.Producers
	} else if s.expectProducers != hello.Producers {
		return nil, 0, 0, 0, fmt.Sprintf("producer group size mismatch: feed registered %d, phello says %d",
			s.expectProducers, hello.Producers)
	}
	p = s.producers[hello.Producer]
	if p == nil {
		p = &producerState{id: hello.Producer}
		s.producers[hello.Producer] = p
	}
	switch {
	case hello.Epoch == 0:
		// Restarted process: fence the old epoch, reset the batch
		// sequence. The event count below tells the producer how far
		// its deterministic stream already made it into the log.
		p.epoch++
		p.bseq = 0
	case hello.Epoch == p.epoch:
		// Reconnect within the epoch: keep the batch sequence so the
		// producer's resend of unacked batches dedupes.
	case hello.Epoch < p.epoch:
		return nil, 0, 0, 0, fmt.Sprintf("stale epoch %d (current is %d)", hello.Epoch, p.epoch)
	default:
		// An epoch this broker never granted — e.g. the producer
		// outlived a broker restart that lost the registry. Dedupe
		// state is gone, so admitting it could duplicate events;
		// reject loudly instead.
		return nil, 0, 0, 0, fmt.Sprintf("unknown epoch %d (broker has only granted %d)", hello.Epoch, p.epoch)
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	return p, p.epoch, p.bseq, p.events, ""
}

// ingest runs one publish batch through the global sequencer: dedupe
// by producer batch sequence, then the shared batch fan-out core —
// one canonical encode per maxBatch run (on enc, the connection's
// scratch), one spool frame, one queue append per subscriber. The
// sequencer lock covers only the dedupe check and sequence assignment,
// so concurrent producers overlap everything else (encoding in
// parallel, delivery ordered by the fan-out ticket). It returns the
// batch sequence to acknowledge (monotone: replays ack the high-water
// mark), and only after the fan-out completes — an acked batch is in
// the spool and every subscriber queue, preserving at-least-once
// across a broker death.
// The total order of the feed is the order producers' batches acquire
// s.mu here, interleaved with any in-process Broadcast calls.
func (s *Server) ingest(p *producerState, conn net.Conn, epoch, bseq uint64, evs []osn.Event, enc *[]byte) (uint64, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return 0, errors.New("server closing")
	}
	if p.epoch != epoch || p.conn != conn {
		s.mu.Unlock()
		return 0, errFenced
	}
	switch {
	case bseq == 0:
		s.mu.Unlock()
		return 0, errors.New("batch sequence 0 (sequences start at 1)")
	case bseq <= p.bseq:
		// A reconnect replayed a batch the broker already sequenced:
		// drop it, but still ack the high-water mark so the producer
		// can retire it.
		p.dups++
		hw := p.bseq
		s.mu.Unlock()
		return hw, nil
	case bseq > p.bseq+1:
		s.mu.Unlock()
		return 0, fmt.Errorf("batch sequence gap: have %d, got %d", p.bseq, bseq)
	}
	p.bseq = bseq
	p.batches++
	p.events += uint64(len(evs))
	first := s.seq + 1
	s.seq += uint64(len(evs))
	s.mu.Unlock()

	if len(evs) > 0 {
		s.fanout(first, len(evs), evs, s.encodeChunks(first, evs, enc))
	}
	return bseq, nil
}

// closeEpoch marks the producer's feed contribution complete. When
// every producer in the declared group has closed, the ingest-done
// channel closes — the broker's cue to drain subscribers and emit eof.
// Idempotent: a restarted producer that finds nothing left to publish
// may close again.
func (s *Server) closeEpoch(p *producerState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.eof {
		return
	}
	p.eof = true
	s.eofed++
	if s.expectProducers > 0 && s.eofed >= s.expectProducers {
		select {
		case <-s.ingestDone:
		default:
			close(s.ingestDone)
		}
	}
}

// detachProducer drops the producer's connection (its registration
// and dedupe state survive for reconnect or restart).
func (s *Server) detachProducer(p *producerState, conn net.Conn) {
	s.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	s.mu.Unlock()
	conn.Close()
}
