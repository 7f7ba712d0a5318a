// The control plane: the four one-shot exchanges a broker answers
// besides the feed, and the state they move. Each rides one
// short-lived connection of its own on the regular listen port; the
// first frame's tag selects it through firstFrames, the table that
// also names every reply's tag, and serveControl validates the
// request's partition key, answers and closes.
//
// Snapshot rendezvous (soffer / sfetch). A running worker periodically
// OFFERS its partition's serialized detector.PipelineSnapshot, stamped
// with the feed sequence it covers. The broker holds the
// highest-sequence offer per (part, parts) key, taking a partitioned
// key's offers only from the session admission made its owner, and is
// the only keeper of worker state, exactly as durable as its feed:
// spooled, offers are written beside the spool and reload on restart;
// memory-only, they die with the feed. A worker adopts its key's
// snapshot in the subscribe handshake itself (hello "adopt", see
// admit), so the one who FETCHES is the rebalance coordinator.
//
// Live rebalance (rprepare / rcommit). The broker is the only place a
// consistent cut exists, so the coordinator (detectd -rebalance) asks
// it to PREPARE: pick the barrier B = current head sequence and fence
// every subscriber of the old group shape. A fenced session is served
// everything it is owed up to and including B, then a terminal rebal
// frame instead of more events. The old workers snapshot at exactly B
// and offer it; the coordinator fetches all K, re-keys them into K'
// (detector.RebalanceSnapshots), offers the new set, and COMMITs,
// which drops the old shape's snapshots; new workers adopt theirs and
// subscribe from B+1.
//
// All of this state is one control struct guarded by Server.mu.
// Admission must see fences and snapshots atomically with its own
// checks, so prepare, commit and admission run under mu anyway; a
// snapshot store is one map write (its spool write runs outside mu). A
// lock of its own would only add a lock-order rule.

package stream

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// ErrNoSnapshot is returned by FetchSnapshot when the broker holds no
// snapshot for the requested partition: none was offered, or a
// committed rebalance retired the key's group shape.
var ErrNoSnapshot = errors.New("stream: no snapshot offered for this partition")

// control is the broker's control-plane state, guarded by Server.mu.
type control struct {
	// fences holds the admission fence per OLD group size; an entry
	// outlives its commit, so a stale worker of a retired shape is never
	// re-admitted past the barrier. rebLog audits every prepare.
	fences map[int]*fence
	rebLog []*fence
	snaps  map[partKey]spool.Snapshot // the freshest offer per key (payload immutable once held)
	// owners names the session admission last made each partitioned
	// key's owner; an offer naming another session is refused.
	owners map[partKey]string
}

// fence is one live rebalance: partition group `from` is cut at
// `barrier` in favour of a group of `nparts`.
type fence struct {
	from      int
	nparts    int
	barrier   uint64
	committed bool
}

// firstFrame is one row of the first-frame table: how the broker
// answers a connection that opens with a given tag.
type firstFrame struct {
	reply string // the reply's tag, refusals included
	// invalid, when set, is the refusal for a request whose partition
	// key (part of parts) is out of range.
	invalid string
	// serve answers a one-shot control request (nil for subscribe and
	// publish, which serveConn runs itself). It returns the reply, whose
	// tag serveControl fills in, or nil when nothing is left to send: a
	// fetch that hit has sent its snapshot, or an offer broke off.
	serve func(s *Server, conn net.Conn, br *bufio.Reader, req frame) *frame
}

// firstFrames is the first-frame table: every tag a connection may open
// with. serveConn answers a version mismatch with the row's reply tag,
// so a client always reads its refusal as the reply it waits for.
var firstFrames = map[string]firstFrame{
	frameHello:     {reply: frameWelcome},
	framePHello:    {reply: framePWelcome},
	frameSnapOffer: {reply: frameSnapOK, invalid: "invalid partition", serve: (*Server).ctlOffer},
	frameSnapFetch: {reply: frameSnap, invalid: "invalid partition", serve: (*Server).ctlFetch},
	frameRebPrep:   {reply: frameRebOK, serve: (*Server).ctlPrepare},
	frameRebCommit: {reply: frameRebOK, serve: (*Server).ctlCommit},
}

// serveControl answers one one-shot control request and closes the
// connection. The whole exchange, a snapshot transfer included, runs
// under one handshake deadline.
func (s *Server) serveControl(conn net.Conn, br *bufio.Reader, req frame, row firstFrame) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rep := &frame{Err: row.invalid}
	if row.invalid == "" || (req.Parts >= 1 && req.Part >= 0 && req.Part < req.Parts) {
		rep = row.serve(s, conn, br, req)
	}
	if rep != nil {
		rep.T = row.reply
		writeControl(conn, *rep)
	}
}

// ctlOffer stores the raw payload frame that follows the soffer, which
// must be the size it announced, unless the held snapshot is fresher:
// an equal sequence replaces (an idempotent re-offer), an older one is
// confirmed and dropped, so a lagging worker cannot regress the store.
// A usable spool stores it first, outside mu (a large fsync must not
// stall admission); a failed write is refused, so the worker won't ack.
//
// Two offers are refused (offerRefusalLocked), before the write and
// again after it, since admission and commits go on meanwhile. One
// names a session that is no longer its key's owner: a dead worker's
// late offer must not overwrite the state its successor adopted. The
// other is for a group shape a committed rebalance retired: nobody may
// adopt it, and its file, removed if it was written, would pin the
// spool's retention. A dead owner's file written while its successor
// was admitted stays on disk until an offer passes it; it is a valid
// state of the key, just not the one adopted.
func (s *Server) ctlOffer(_ net.Conn, br *bufio.Reader, req frame) *frame {
	if req.Size > wire.MaxSnapshotSize {
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
	why, _ := s.offerRefusalLocked(req)
	s.mu.Unlock()
	if why != "" {
		return &frame{Err: why}
	}
	if s.log.spoolUsable() {
		if err := s.log.opt.spool.PutSnapshot(req.Part, req.Parts, req.Seq, payload); err != nil {
			return &frame{Err: err.Error()}
		}
	}
	k := partKey{part: req.Part, parts: req.Parts}
	s.mu.Lock()
	why, retired := s.offerRefusalLocked(req)
	if held, ok := s.ctl.snaps[k]; why == "" && (!ok || held.Seq <= req.Seq) {
		s.ctl.snaps[k] = spool.Snapshot{Part: req.Part, Parts: req.Parts, Seq: req.Seq, Data: payload}
	}
	s.mu.Unlock()
	if retired {
		s.dropSnapshots(req.Parts) // the file just written, and its pin
	}
	if why != "" {
		return &frame{Err: why}
	}
	return &frame{}
}

// offerRefusalLocked is the reason an offer is refused, "" if it is
// not, and whether its group shape is retired: a committed rebalance
// retired the shape, and no rebalance back to it is re-keying its
// snapshots; or the offer names a session other than its key's owner.
// The rebalance coordinator offers anonymously, as the cut itself.
// Caller holds s.mu.
func (s *Server) offerRefusalLocked(req frame) (why string, retired bool) {
	if f := s.ctl.fences[req.Parts]; f != nil && f.committed {
		back := false
		for _, g := range s.ctl.fences {
			back = back || (!g.committed && g.nparts == req.Parts)
		}
		if !back {
			return fmt.Sprintf("partition group %d rebalanced to %d at barrier %d", f.from, f.nparts, f.barrier), true
		}
	}
	if owner, ok := s.ctl.owners[partKey{part: req.Part, parts: req.Parts}]; ok && req.Session != "" && req.Session != owner {
		return fmt.Sprintf("session %s does not own partition %d/%d", req.Session, req.Part, req.Parts), false
	}
	return "", false
}

// dropSnapshots forgets every snapshot and owner of group shape parts,
// in memory and, on a spooled broker, on disk together with the
// retention pins the snapshots held. The files go outside mu, like an
// offer's.
func (s *Server) dropSnapshots(parts int) {
	s.mu.Lock()
	for k := range s.ctl.snaps {
		if k.parts == parts {
			delete(s.ctl.snaps, k)
		}
	}
	for k := range s.ctl.owners {
		if k.parts == parts {
			delete(s.ctl.owners, k)
		}
	}
	s.mu.Unlock()
	if sp := s.log.opt.spool; sp != nil {
		sp.DropSnapshots(parts)
	}
}

// ctlFetch sends the held snapshot as a snap header plus raw payload
// frame, or answers with a tagged miss.
func (s *Server) ctlFetch(conn net.Conn, _ *bufio.Reader, req frame) *frame {
	s.mu.Lock()
	v, ok := s.ctl.snaps[partKey{part: req.Part, parts: req.Parts}]
	s.mu.Unlock()
	if !ok {
		return &frame{Err: snapNone}
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	hdr := marshalControl(frame{T: frameSnap, Part: req.Part, Parts: req.Parts, Seq: v.Seq, Size: uint64(len(v.Data))})
	if writeFrame(bw, hdr) == nil && writeFrame(bw, v.Data) == nil {
		bw.Flush()
	}
	return nil
}

// ctlPrepare installs a fence on an old group shape and replies with
// the chosen barrier. Idempotent: re-preparing the same K→K' returns
// the already-chosen barrier, so a coordinator can retry across a
// dropped connection; a conflicting K→K” is rejected until the first
// rebalance's fence is superseded.
func (s *Server) ctlPrepare(_ net.Conn, _ *bufio.Reader, req frame) *frame {
	if req.Parts < 2 || req.NParts < 1 || req.Parts == req.NParts {
		return &frame{Err: "invalid rebalance shape"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, closing := s.log.seq(); closing {
		return &frame{Err: "server closing"}
	}
	f := s.ctl.fences[req.Parts]
	if f != nil && f.nparts != req.NParts {
		return &frame{Err: fmt.Sprintf("partition group %d already rebalancing to %d", req.Parts, f.nparts)}
	}
	if f == nil {
		f = &fence{from: req.Parts, nparts: req.NParts, barrier: s.log.fence(req.Parts, req.NParts)}
		s.ctl.fences[req.Parts] = f
		s.ctl.rebLog = append(s.ctl.rebLog, f)
	}
	return &frame{Parts: req.Parts, NParts: req.NParts, Barrier: f.barrier}
}

// ctlCommit marks a prepared rebalance committed. The old shape's fence
// stays (its sessions are retired for good) and its snapshots go, so
// they no longer pin the spool; the commit lifts any stale fence keyed
// by the *new* shape, so a chained rebalance back to a
// previously-retired group size can admit subscribers again.
func (s *Server) ctlCommit(_ net.Conn, _ *bufio.Reader, req frame) *frame {
	s.mu.Lock()
	f := s.ctl.fences[req.Parts]
	switch {
	case f == nil:
		s.mu.Unlock()
		return &frame{Err: fmt.Sprintf("no rebalance prepared for partition group %d", req.Parts)}
	case f.nparts != req.NParts || f.barrier != req.Barrier:
		s.mu.Unlock()
		return &frame{Err: fmt.Sprintf("commit names %d@%d, prepared rebalance is %d@%d",
			req.NParts, req.Barrier, f.nparts, f.barrier)}
	}
	f.committed = true
	delete(s.ctl.fences, req.NParts)
	s.mu.Unlock()
	s.dropSnapshots(req.Parts)
	return &frame{Parts: req.Parts, NParts: req.NParts, Barrier: req.Barrier}
}

// controlStatsLocked lists the held snapshots, sorted by (parts, part),
// and the rebalance audit. Caller holds s.mu.
func (s *Server) controlStatsLocked() ([]spool.Snapshot, []RebalanceStats) {
	snaps := make([]spool.Snapshot, 0, len(s.ctl.snaps))
	for _, v := range s.ctl.snaps {
		snaps = append(snaps, v)
	}
	slices.SortFunc(snaps, func(a, b spool.Snapshot) int {
		return cmp.Or(cmp.Compare(a.Parts, b.Parts), cmp.Compare(a.Part, b.Part))
	})
	reb := make([]RebalanceStats, 0, len(s.ctl.rebLog))
	for _, f := range s.ctl.rebLog {
		reb = append(reb, RebalanceStats{From: f.from, To: f.nparts, Barrier: f.barrier, Committed: f.committed})
	}
	return snaps, reb
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
// A refusal returns its reply along with the error, so the caller can
// read why. The caller owns conn and closes it on error; dialing
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
		return rep, nil, fmt.Errorf("stream: %s rejected: %s", req.T, rep.Err)
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
// unless that session is the key's current owner. An empty session
// offers anonymously, as the rebalance coordinator does.
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

// FetchSnapshot retrieves the latest snapshot the broker holds for
// partition part of parts: the stamped feed sequence and the
// serialized detector.PipelineSnapshot payload. It returns an error
// wrapping ErrNoSnapshot when the broker holds nothing for the key.
func FetchSnapshot(addr string, part, parts int) (seq uint64, data []byte, err error) {
	if parts < 1 || part < 0 || part >= parts {
		return 0, nil, fmt.Errorf("stream: invalid partition %d/%d", part, parts)
	}
	conn, err := dialBroker(addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	h, br, err := handshake(conn, frame{T: frameSnapFetch, V: ProtocolVersion, Part: part, Parts: parts}, nil, frameSnap)
	switch {
	case h.Err == snapNone:
		return 0, nil, fmt.Errorf("%w (partition %d/%d)", ErrNoSnapshot, part, parts)
	case err != nil:
		return 0, nil, err
	case h.Part != part || h.Parts != parts || h.Size > wire.MaxSnapshotSize:
		return 0, nil, fmt.Errorf("stream: sfetch: header names partition %d/%d (%d bytes), asked %d/%d",
			h.Part, h.Parts, h.Size, part, parts)
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	data, err = wire.ReadFrameLimit(br, nil, h.Size)
	if err != nil {
		return 0, nil, fmt.Errorf("stream: sfetch: %w", err)
	}
	if uint64(len(data)) != h.Size {
		return 0, nil, fmt.Errorf("stream: sfetch: payload of %d bytes does not match announced %d", len(data), h.Size)
	}
	return h.Seq, data, nil
}

// PrepareRebalance asks the broker to fence partition group `from` for
// a cutover to `to` workers and returns the barrier it chose: old
// owners drain to the barrier and snapshot there; new owners subscribe
// from barrier+1. Idempotent per (from, to) — a retry returns the same
// barrier.
func PrepareRebalance(addr string, from, to int) (uint64, error) {
	conn, err := dialBroker(addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	rep, _, err := handshake(conn, frame{T: frameRebPrep, V: ProtocolVersion, Parts: from, NParts: to}, nil, frameRebOK)
	return rep.Barrier, err
}

// CommitRebalance finalizes a prepared from→to rebalance at the
// barrier PrepareRebalance returned, unfencing the new group shape.
func CommitRebalance(addr string, from, to int, barrier uint64) error {
	conn, err := dialBroker(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, _, err = handshake(conn, frame{T: frameRebCommit, V: ProtocolVersion, Parts: from, NParts: to, Barrier: barrier}, nil, frameRebOK)
	return err
}
