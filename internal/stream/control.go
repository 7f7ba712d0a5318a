// The control plane: the six one-shot exchanges a broker answers
// besides the feed, and the state they move. Each rides one
// short-lived connection of its own on the regular listen port; the
// first frame's tag selects it through firstFrames, the table that
// also names every reply's tag, and serveControl validates the
// request's partition key, answers and closes.
//
// Snapshot rendezvous (soffer / sfetch). A running worker periodically
// OFFERS its partition's serialized detector.PipelineSnapshot, stamped
// with the feed sequence it covers; a new or standby worker FETCHES the
// partition's latest snapshot and resumes the feed from the stamped
// sequence + 1. The broker holds the highest-sequence offer per (part,
// parts) key and is the only keeper of worker state, exactly as durable
// as its feed: spooled, offers are written beside the spool and reload
// on restart; memory-only, they die with the feed.
//
// Live rebalance (rprepare / rcommit). The broker is the only place a
// consistent cut exists, so the coordinator (detectd -rebalance) asks
// it to PREPARE: pick the barrier B = current head sequence and fence
// every subscriber of the old group shape. A fenced session is served
// everything it is owed up to and including B, then a terminal rebal
// frame instead of more events. The old workers snapshot at exactly B
// and offer it; the coordinator fetches all K, re-keys them into K'
// (detector.RebalanceSnapshots), offers the new set, and COMMITs; new
// workers restore and subscribe from B+1.
//
// Standby promotion (rstatus / rclaim): a partition key's liveness,
// and a reservation of the key for one session id, so that exactly one
// standby wins a dead worker's slot.
//
// All of this state is one control struct guarded by Server.mu.
// Admission must see fences and claims atomically with its own checks,
// so prepare, admission and claim run under mu anyway; a snapshot store
// is one map write (its spool write runs outside mu). A lock of its own
// would only add a lock-order rule.

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
// snapshot for the requested partition — the worker starts cold, at
// the live head or backfilling from sequence 1.
var ErrNoSnapshot = errors.New("stream: no snapshot offered for this partition")

// PartitionStatus is the broker's view of one partition key,
// returned by QueryPartition. A standby promotes when the key has been
// seen (a worker once served it), nothing is connected now, a snapshot
// is available to adopt, and no fence is pending (a fence means a
// coordinated rebalance is mid-flight — the coordinator, not the
// standby, owns the recovery).
type PartitionStatus struct {
	Connected   int    // sessions currently connected on this key
	Seen        bool   // a worker was admitted here, or the key's snapshot was reloaded restartGrace ago
	SnapshotSeq uint64 // stamp of the freshest held snapshot; 0 = none
	Barrier     uint64 // fence barrier on this group shape; 0 = not fenced
}

// control is the broker's control-plane state, guarded by Server.mu.
type control struct {
	// fences holds the admission fence per OLD group size; an entry
	// outlives its commit, so a stale worker of a retired shape is never
	// re-admitted past the barrier. rebLog audits every prepare.
	fences map[int]*fence
	rebLog []*fence
	// claims maps a key to the session id a standby reserved it for;
	// seen, from when a key reads as seen (admitted a subscriber: zero;
	// reloaded: restartGrace on), tells "worker died" from "never ran".
	claims map[partKey]claim
	seen   map[partKey]time.Time
	snaps  map[partKey]spool.Snapshot // the freshest offer per key (payload immutable once held)
}

// fence is one live rebalance: partition group `from` is cut at
// `barrier` in favour of a group of `nparts`.
type fence struct {
	from      int
	nparts    int
	barrier   uint64
	committed bool
}

// claim reserves a partition key for a standby's promotion session; it
// expires after the session linger.
type claim struct {
	session string
	at      time.Time
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
	frameRebStatus: {reply: frameRebInfo, invalid: "invalid partition", serve: (*Server).ctlStatus},
	frameRebClaim:  {reply: frameRebOK, invalid: "invalid claim", serve: (*Server).ctlClaim},
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
	if s.log.spoolUsable() {
		if err := s.log.opt.spool.PutSnapshot(req.Part, req.Parts, req.Seq, payload); err != nil {
			return &frame{Err: err.Error()}
		}
	}
	k := partKey{part: req.Part, parts: req.Parts}
	s.mu.Lock()
	defer s.mu.Unlock()
	if held, ok := s.ctl.snaps[k]; !ok || held.Seq <= req.Seq {
		s.ctl.snaps[k] = spool.Snapshot{Part: req.Part, Parts: req.Parts, Seq: req.Seq, Data: payload}
	}
	return &frame{}
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
// stays (its sessions are retired for good); the commit lifts any stale
// fence keyed by the *new* shape, so a chained rebalance back to a
// previously-retired group size can admit subscribers again.
func (s *Server) ctlCommit(_ net.Conn, _ *bufio.Reader, req frame) *frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.ctl.fences[req.Parts]
	switch {
	case f == nil:
		return &frame{Err: fmt.Sprintf("no rebalance prepared for partition group %d", req.Parts)}
	case f.nparts != req.NParts || f.barrier != req.Barrier:
		return &frame{Err: fmt.Sprintf("commit names %d@%d, prepared rebalance is %d@%d",
			req.NParts, req.Barrier, f.nparts, f.barrier)}
	}
	f.committed = true
	delete(s.ctl.fences, req.NParts)
	return &frame{Parts: req.Parts, NParts: req.NParts, Barrier: req.Barrier}
}

// ctlStatus reports a partition key's liveness for standby promotion
// decisions.
func (s *Server) ctlStatus(_ net.Conn, _ *bufio.Reader, req frame) *frame {
	k := partKey{part: req.Part, parts: req.Parts}
	s.mu.Lock()
	defer s.mu.Unlock()
	at, seen := s.ctl.seen[k]
	rep := &frame{Part: req.Part, Parts: req.Parts, Connected: s.connectedOnLocked(k),
		Seen: seen && !time.Now().Before(at), Seq: s.ctl.snaps[k].Seq}
	if f := s.ctl.fences[req.Parts]; f != nil {
		rep.Barrier = f.barrier
	}
	return rep
}

// ctlClaim reserves a partition key for one session id. Granted only
// while nothing is connected on the key and no other fresh claim holds
// it; a granted claim expires after the session linger if the claimant
// never connects.
func (s *Server) ctlClaim(_ net.Conn, _ *bufio.Reader, req frame) *frame {
	if req.Session == "" {
		return &frame{Err: "invalid claim"}
	}
	k := partKey{part: req.Part, parts: req.Parts}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.connectedOnLocked(k); n > 0 {
		return &frame{Err: fmt.Sprintf("partition %d/%d has %d connected session(s)", req.Part, req.Parts, n)}
	}
	if c, ok := s.ctl.claims[k]; ok && c.session != req.Session && time.Since(c.at) < s.log.opt.linger {
		return &frame{Err: "partition already claimed"}
	}
	s.ctl.claims[k] = claim{session: req.Session, at: time.Now()}
	return &frame{Part: req.Part, Parts: req.Parts}
}

// connectedOnLocked counts sessions currently connected on partition
// key k (a group of one matches full-feed sessions, which admit
// normalizes to 0/0). Caller holds s.mu.
func (s *Server) connectedOnLocked(k partKey) int {
	if k.parts == 1 {
		k = partKey{}
	}
	return s.log.connected(&k)
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
// an error — the fresher snapshot simply stays.
func OfferSnapshot(addr string, part, parts int, seq uint64, data []byte) error {
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
	offer := frame{T: frameSnapOffer, V: ProtocolVersion, Part: part, Parts: parts, Seq: seq, Size: uint64(len(data))}
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

// QueryPartition reports the broker's view of one partition key; see
// PartitionStatus for the standby promotion reading of it.
func QueryPartition(addr string, part, parts int) (PartitionStatus, error) {
	conn, err := dialBroker(addr)
	if err != nil {
		return PartitionStatus{}, err
	}
	defer conn.Close()
	f, _, err := handshake(conn, frame{T: frameRebStatus, V: ProtocolVersion, Part: part, Parts: parts}, nil, frameRebInfo)
	if err != nil {
		return PartitionStatus{}, err
	}
	return PartitionStatus{Connected: f.Connected, Seen: f.Seen, SnapshotSeq: f.Seq, Barrier: f.Barrier}, nil
}

// ClaimPartition reserves partition part of parts for the given
// session id, so that exactly one standby wins a dead worker's slot.
// The claimant must then dial with WithSessionID(session); other
// sessions are refused the key while the claim is fresh.
func ClaimPartition(addr string, part, parts int, session string) error {
	conn, err := dialBroker(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, _, err = handshake(conn, frame{T: frameRebClaim, V: ProtocolVersion, Part: part, Parts: parts, Session: session}, nil, frameRebOK)
	return err
}
