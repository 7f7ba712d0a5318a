package stream

// This file is the broker half of the publish sub-protocol: the
// server-side ingest path that admits wire producers, fences their
// epochs, deduplicates reconnect replays by per-producer batch
// sequence, and runs every accepted batch through the log's one
// sequencer — so K concurrent producers interleave into one totally
// ordered feed whose downstream frames, tail, and spool are
// byte-compatible with a single in-process BroadcastBatch caller. The
// producer-side counterpart is Publisher (publisher.go); the frame
// vocabulary is in wire.go.

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"

	"encoding/json"

	"sybilwild/internal/wire"
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
// eof downstream — or once the broker stopped on a failed write, which
// ServerStats.SpoolErr then names: the feed did not end, and nothing is
// left to serve. Otherwise it never closes on a server that admits no
// wire producers.
func (s *Server) IngestDone() <-chan struct{} { return s.ingestDone }

// servePublisher admits a wire producer and runs its ingest loop:
// pbatch frames are deduplicated, sequenced, published and acked in
// arrival order; peof closes the producer's epoch. Each pbatch is
// checked once and its records are spliced into the feed's batch
// frames. A frame that is neither a decodable pbatch nor peof is
// refused with a pack carrying the reason, then the broker hangs up.
// Runs on the connection's accept goroutine; the broker only ever
// writes to a producer from this loop, so no separate writer goroutine
// is needed.
func (s *Server) servePublisher(conn net.Conn, br *bufio.Reader, hello frame, buf []byte) {
	p, epoch, ackB, count, reject := s.admitProducer(hello, conn)
	if reject != nil {
		refuse(conn, framePWelcome, reject)
		return
	}
	if err := writeControl(conn, frame{T: framePWelcome, V: ProtocolVersion,
		Epoch: epoch, Bseq: ackB, Count: count}); err != nil {
		s.detachProducer(p, conn)
		return
	}

	bw := bufio.NewWriterSize(conn, 4<<10)
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			s.detachProducer(p, conn)
			return
		}
		buf = payload
		var f frame
		if wire.IsControl(payload) && json.Unmarshal(payload, &f) == nil && f.T == framePEOF {
			// Confirm first: closing the last epoch closes IngestDone, and a
			// broker that shuts down on it severs this connection.
			writeControl(bw, frame{T: framePEOF})
			bw.Flush()
			s.closeEpoch(p)
			continue // producer hangs up once it reads the confirmation
		}
		bseq, n, ok := wire.ParsePBatchBounds(payload)
		if !ok {
			log.Printf("stream: producer %s sent an undecodable frame (%d bytes); refusing", p.id, len(payload))
			writeControl(bw, frame{T: framePAck, Err: "undecodable pbatch"})
			bw.Flush()
			s.detachProducer(p, conn)
			return
		}
		ack, first, err := s.sequence(p, conn, epoch, bseq, n)
		if err != nil {
			if !errors.Is(err, errFenced) {
				log.Printf("stream: producer %s batch %d rejected: %v", p.id, bseq, err)
			}
			s.detachProducer(p, conn)
			return
		}
		if first > 0 {
			// Each maxBatch run of the producer's own records goes under a
			// batch header in one copy sized for it — the bytes an encode
			// would produce, and the chunks' own, since the payload is read
			// scratch the next read reuses.
			err = s.publish(s.buildChunks(first, n, func(off, end int, seq uint64) []byte {
				return wire.SpliceBatch(nil, seq, payload, off, end)
			}))
		}
		// A batch the spool did not take stopped the broker: no ack.
		if err != nil || writeControl(bw, frame{T: framePAck, Bseq: ack}) != nil || bw.Flush() != nil {
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
// the refusal: closing while the log closes, else an ordinary one.
func (s *Server) admitProducer(hello frame, conn net.Conn) (p *producerState, epoch, ackB, count uint64, reject *frame) {
	if hello.Producer == "" || hello.Producers < 1 {
		return nil, 0, 0, 0, refusal("", "malformed phello (producer id and group size required)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, closing := s.log.seq(); closing {
		return nil, 0, 0, 0, refusal(classClosing, ErrClosing.Error())
	}
	if s.expectProducers == 0 {
		s.expectProducers = hello.Producers
	} else if s.expectProducers != hello.Producers {
		return nil, 0, 0, 0, refusal("", fmt.Sprintf("producer group size mismatch: feed registered %d, phello says %d",
			s.expectProducers, hello.Producers))
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
		return nil, 0, 0, 0, refusal("", fmt.Sprintf("stale epoch %d (current is %d)", hello.Epoch, p.epoch))
	default:
		// An epoch this broker never granted — e.g. the producer
		// outlived a broker restart that lost the registry. Dedupe
		// state is gone, so admitting it could duplicate events;
		// reject loudly instead.
		return nil, 0, 0, 0, refusal("", fmt.Sprintf("unknown epoch %d (broker has only granted %d)", hello.Epoch, p.epoch))
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	return p, p.epoch, p.bseq, p.events, nil
}

// sequence runs one publish batch of n events through dedupe by
// producer batch sequence, then the log's sequencer. s.mu covers only
// those, so concurrent producers overlap everything else (frame
// building in parallel, publication ordered by the log's ticket). It
// returns the batch sequence to acknowledge (monotone: replays ack the
// high-water mark) and the batch's first feed sequence, 0 when there is
// nothing to publish (a replay, or an empty batch). The caller
// publishes the batch before it acks, so an acked batch is in the spool
// and the tail, preserving at-least-once across a broker death, and
// one the spool did not take is never acked. The total order of the
// feed is the order batches reserve their sequences, producers' and
// in-process BroadcastBatch calls' alike.
func (s *Server) sequence(p *producerState, conn net.Conn, epoch, bseq uint64, n int) (ack, first uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.epoch != epoch || p.conn != conn {
		return 0, 0, errFenced
	}
	switch {
	case bseq == 0:
		return 0, 0, errors.New("batch sequence 0 (sequences start at 1)")
	case bseq <= p.bseq:
		// A reconnect replayed a batch the broker already sequenced:
		// drop it, but still ack the high-water mark so the producer
		// can retire it.
		p.dups++
		return p.bseq, 0, nil
	case bseq > p.bseq+1:
		return 0, 0, fmt.Errorf("batch sequence gap: have %d, got %d", p.bseq, bseq)
	}
	if n > 0 {
		if first, err = s.log.reserve(n, 0); err != nil {
			return 0, 0, err
		}
	}
	p.bseq = bseq
	p.batches++
	p.events += uint64(n)
	return bseq, first, nil
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
		s.endIngest.Do(func() { close(s.ingestDone) })
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
