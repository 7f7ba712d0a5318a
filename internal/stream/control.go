// The control plane: the two one-shot exchanges a broker answers
// besides the feed, and the state they move. Each rides one
// short-lived connection of its own on the regular listen port; the
// first frame's tag selects it through firstFrames, the table that
// also names every reply's tag, and serveControl validates the
// request's partition key, answers and closes.
//
// Snapshot offers (soffer). A running worker periodically OFFERS its
// partition's serialized detector.PipelineSnapshot, stamped with the
// feed sequence it covers. The broker holds the highest-sequence offer
// per (part, parts) key, taking a partitioned key's offers only from
// the session admission made its owner, and is the only keeper of
// worker state, exactly as durable as its feed: offers are written
// beside the spool and reload on restart (a private spool dies with
// its server, feed and all). A worker adopts its key's snapshot in the
// subscribe handshake itself (hello "adopt", see admit).
//
// Live rebalance (rprepare). The root broker's sequencer is the only
// place a consistent cut exists, so detectd -rebalance asks it to
// PREPARE: it sequences one cutover record (osn.EvCutover, naming the
// old group shape K and the new K') at B, through the same reserve and
// publish as any batch, so the spool keeps it, relays forward it and
// every partition of every shape receives it. A worker of shape K
// judges through the record, snapshots at exactly B, offers that as
// its retirement offer and ends; nobody's delivery is clamped. A new
// worker's adopting hello on a K' key is handed all K old snapshots in
// its welcome once every one sits at B (and a waitable refusal until
// then); it re-keys them itself (detector.RebalanceSnapshots), keeps
// its own partition, subscribes from B+1 and offers at once. The
// offer that leaves every K' key holding one at or past B commits the
// rebalance, which drops the old shape's snapshots. Every broker learns
// a cutover from its record alone: the root when it sequences it, a
// relay hop when it adopts the frame carrying it (AdoptFrame). A
// spooled broker notes each cutover beside its log before appending
// the record (spool.PutCutover) and holds them again when it reopens
// (NewServer), so a restart keeps the cut.
//
// Every decision — admission, an offer, a prepare, a learned record and
// the restart reload — is the plane's (plane.go), a socket-free type
// with no lock of its own that Server calls under Server.mu. Admission
// must see the cutovers and snapshots atomically with its own checks,
// so prepare, commit and admission run under mu anyway; this file keeps
// the sockets and the spool writes around those calls. A lock of the
// plane's own would only add a lock-order rule.

package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// firstFrame is one row of the first-frame table: how the broker
// answers a connection that opens with a given tag.
type firstFrame struct {
	reply string // the reply's tag, refusals included
	// serve answers a one-shot control request (nil for subscribe and
	// publish, which serveConn runs itself). It returns the reply, whose
	// tag serveControl fills in, or nil when an offer broke off.
	serve func(s *Server, br *bufio.Reader, req frame) *frame
}

// firstFrames is the first-frame table: every tag a connection may open
// with. serveConn answers a version mismatch with the row's reply tag,
// so a client always reads its refusal as the reply it waits for.
var firstFrames = map[string]firstFrame{
	frameHello:     {reply: frameWelcome},
	framePHello:    {reply: framePWelcome},
	frameSnapOffer: {reply: frameSnapOK, serve: (*Server).ctlOffer},
	frameRebPrep:   {reply: frameRebOK, serve: (*Server).ctlPrepare},
}

// serveControl answers one one-shot control request and closes the
// connection. The whole exchange, a snapshot transfer included, runs
// under one handshake deadline.
func (s *Server) serveControl(conn net.Conn, br *bufio.Reader, req frame, row firstFrame) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if rep := row.serve(s, br, req); rep != nil {
		rep.T = row.reply
		writeControl(conn, *rep)
	}
}

// ctlOffer stores the raw payload frame that follows the soffer, whose
// partition key must be valid and whose payload must be the size it
// announced: the plane checks the offer's owner (offerRefusal), a
// usable spool writes the payload, outside mu (a large fsync must not
// stall admission), and the plane takes it (offer), checking the owner
// again, since admission and commits go on meanwhile. A failed write is
// refused, so the worker won't ack. A dead owner's file written while
// its successor was admitted stays on disk until an offer passes it; it
// is a valid state of the key, just not the one adopted. The files of a
// shape a commit retired go, outside mu too, with the file just written
// if the commit landed during its write.
func (s *Server) ctlOffer(br *bufio.Reader, req frame) *frame {
	switch {
	case req.Parts < 1 || req.Part < 0 || req.Part >= req.Parts:
		return &frame{Err: "invalid partition"}
	case req.Size > wire.MaxSnapshotSize:
		return &frame{Err: "snapshot too large"}
	}
	payload, err := wire.ReadFrameLimit(br, nil, wire.MaxSnapshotSize)
	if err != nil {
		return nil // connection died mid-transfer; nothing to confirm
	}
	if uint64(len(payload)) != req.Size {
		return &frame{Err: fmt.Sprintf("payload of %d bytes does not match announced size %d", len(payload), req.Size)}
	}
	s.mu.Lock()
	why := s.ctl.offerRefusal(req)
	s.mu.Unlock()
	if why != "" {
		return &frame{Err: why}
	}
	sp := s.log.opt.spool
	if s.log.spoolUsable() {
		if err := sp.PutSnapshot(req.Part, req.Parts, req.Seq, payload); err != nil {
			return &frame{Err: err.Error()}
		}
	}
	s.mu.Lock()
	retired, why := s.ctl.offer(req, payload)
	s.mu.Unlock()
	if retired > 0 {
		sp.DropSnapshots(retired)
	}
	if why != "" {
		return &frame{Err: why}
	}
	return &frame{}
}

// ctlPrepare cuts group shape K over to K' (plane.prepare, under mu,
// which reserves the record's sequence B with the cut); then it notes
// the cutover beside a spooled log, publishes its record at B, and
// replies with B once the record is published, and on disk when there
// is a spool. A retry of the same prepare waits for the same record, so
// a retry across a dropped connection is safe.
func (s *Server) ctlPrepare(_ *bufio.Reader, req frame) *frame {
	s.mu.Lock()
	c, fresh, why := s.ctl.prepare(req.Parts, req.NParts)
	s.mu.Unlock()
	if why != "" {
		return &frame{Err: why}
	}
	// Every sequence after B waits for the record, the note's fsync
	// included: a rebalance is rare, and the note must come first.
	err := s.noteCutover(c)
	if fresh {
		cut := []osn.Event{{Type: osn.EvCutover, Actor: osn.AccountID(c.from), Target: osn.AccountID(c.to)}}
		s.log.publish(s.buildChunks(c.barrier, 1, func(_, _ int, seq uint64) []byte {
			return wire.AppendBatch(nil, seq, cut)
		}))
	}
	s.log.published(c.barrier)
	if err == nil && s.log.spoolUsable() {
		err = s.log.opt.spool.Sync(c.barrier)
	}
	if err != nil {
		return &frame{Err: err.Error()}
	}
	return &frame{Parts: c.from, NParts: c.to, Barrier: c.barrier}
}

// noteCutover notes c beside a usable spool, before its record is
// appended (spool.PutCutover).
func (s *Server) noteCutover(c cutover) error {
	if !s.log.spoolUsable() {
		return nil
	}
	return s.log.opt.spool.PutCutover(spool.Cutover{From: c.from, To: c.to, Barrier: c.barrier})
}

// learnCutover holds the cutover named by a record a relay hop adopts
// at seq, and notes it on a spooled hop. Caller is AdoptFrame, between
// the frame's reservation and its publication, so the note precedes the
// record in the hop's spool.
func (s *Server) learnCutover(ev osn.Event, seq uint64) {
	s.mu.Lock()
	c := s.ctl.install(int(ev.Actor), int(ev.Target), seq)
	s.mu.Unlock()
	if err := s.noteCutover(c); err != nil {
		log.Printf("stream: %v: a restart of this hop forgets the cutover at %d", err, seq)
	}
}

// dialBroker opens a connection to a broker — the one dial every client
// conversation (subscribe, publish, relay, control) starts with.
func dialBroker(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("stream: dial: %w", err)
	}
	return conn, nil
}

// handshake opens a conversation on a dialed broker connection: it
// sends req — followed by body as one raw frame when body is non-nil —
// and reads the reply, which must be tagged want. It returns the reply
// and the reader the rest of the conversation must use (it may already
// hold bytes past the reply), with the connection's deadline cleared.
// A refusal returns its reply along with its error (rejected), so the
// caller can act on the class. The caller owns conn and closes it on error; dialing
// separately lets a caller register conn first, so that its own Close
// can cut a handshake the broker never answers.
func handshake(conn net.Conn, req frame, body []byte, want string) (frame, *bufio.Reader, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	bw := bufio.NewWriterSize(conn, 4<<10)
	err := writeControl(bw, req)
	if err == nil && body != nil {
		err = writeFrame(bw, body)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return frame{}, nil, fmt.Errorf("stream: %s: %w", req.T, err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := readFrame(br, nil)
	if err != nil {
		return frame{}, nil, fmt.Errorf("stream: %s: %w", req.T, err)
	}
	var rep frame
	if err := json.Unmarshal(payload, &rep); err != nil || rep.T != want {
		return frame{}, nil, fmt.Errorf("stream: %s: expected %s, got %q", req.T, want, payload)
	}
	if rep.Err != "" {
		return rep, nil, rejected(req.T, &rep)
	}
	conn.SetDeadline(time.Time{})
	return rep, br, nil
}

// OfferSnapshot publishes a partition's serialized detector snapshot,
// stamped with the feed sequence it covers, to the broker's
// rendezvous store (one short-lived connection). The broker keeps the
// highest-sequence offer per (part, parts); offering below it is not
// an error — the fresher snapshot simply stays. session names the
// offering subscriber: on a partitioned key the broker refuses it
// unless that session is the key's current owner.
func OfferSnapshot(addr, session string, part, parts int, seq uint64, data []byte) error {
	if parts < 1 || part < 0 || part >= parts {
		return fmt.Errorf("stream: invalid partition %d/%d", part, parts)
	}
	conn, err := dialBroker(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if data == nil {
		data = []byte{} // an empty snapshot still sends its payload frame
	}
	offer := frame{T: frameSnapOffer, V: ProtocolVersion, Session: session, Part: part, Parts: parts, Seq: seq, Size: uint64(len(data))}
	_, _, err = handshake(conn, offer, data, frameSnapOK)
	return err
}

// PrepareRebalance asks the root broker to cut partition group `from`
// over to `to` workers and returns the barrier, the sequence of the
// cutover record it published: old owners judge through the record and
// offer their snapshots there; new owners adopt that cut in their
// handshake (DialKernel) and subscribe from barrier+1. Idempotent per
// (from, to) — a retry returns the same barrier. A relay hop refuses.
func PrepareRebalance(addr string, from, to int) (uint64, error) {
	conn, err := dialBroker(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	rep, _, err := handshake(conn, frame{T: frameRebPrep, V: ProtocolVersion, Parts: from, NParts: to}, nil, frameRebOK)
	return rep.Barrier, err
}
