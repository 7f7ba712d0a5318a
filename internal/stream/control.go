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
// worker state, exactly as durable as its feed: spooled, offers are
// written beside the spool and reload on restart; memory-only, they
// die with the feed. A worker adopts its key's snapshot in the
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
	"fmt"
	"log"
	"net"
	"slices"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// control is the broker's control-plane state, guarded by Server.mu.
type control struct {
	// fences holds the admission fence per OLD group size; an entry
	// outlives its commit, so a stale worker of a retired shape is never
	// re-admitted past the barrier. rebLog audits every prepare.
	fences map[int]*fence
	rebLog []*fence
	snaps  map[partKey]spool.Snapshot // the freshest offer per key (payload immutable once held)
	// owners names the session admission last made each partitioned
	// key's owner; an offer naming another session, or for a key with
	// none, is refused.
	owners map[partKey]string
}

// fence is one live rebalance: partition group `from` is cut at
// `barrier`, the sequence of its cutover record, in favour of a group
// of `nparts`. It commits once every key of the new shape holds an
// offer at or past the barrier.
type fence struct {
	from      int
	nparts    int
	barrier   uint64
	committed bool
}

// cutPendingRefusal prefixes the refusal of an adopting hello on a
// group shape a rebalance is cutting over to, while the old group's
// snapshots have not all reached the barrier.
const cutPendingRefusal = "rebalance cut pending: "

// rebalancedRefusal prefixes the refusal of a hello on a group shape a
// rebalance retired, unless it resumes at or below the barrier.
const rebalancedRefusal = "rebalanced: "

// firstFrame is one row of the first-frame table: how the broker
// answers a connection that opens with a given tag.
type firstFrame struct {
	reply string // the reply's tag, refusals included
	// invalid, when set, is the refusal for a request whose partition
	// key (part of parts) is out of range.
	invalid string
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
	frameSnapOffer: {reply: frameSnapOK, invalid: "invalid partition", serve: (*Server).ctlOffer},
	frameRebPrep:   {reply: frameRebOK, serve: (*Server).ctlPrepare},
}

// serveControl answers one one-shot control request and closes the
// connection. The whole exchange, a snapshot transfer included, runs
// under one handshake deadline.
func (s *Server) serveControl(conn net.Conn, br *bufio.Reader, req frame, row firstFrame) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rep := &frame{Err: row.invalid}
	if row.invalid == "" || (req.Parts >= 1 && req.Part >= 0 && req.Part < req.Parts) {
		rep = row.serve(s, br, req)
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
// An offer for a partitioned key is taken only from the session
// admission last made the key's owner (offerRefusalLocked), checked
// before the write and again after it, since admission and commits go
// on meanwhile. A dead owner's file written while its successor was
// admitted stays on disk until an offer passes it; it is a valid state
// of the key, just not the one adopted. A file written while a commit
// retired the key's shape goes with the rest of the shape's. The offer
// that completes a pending rebalance's new shape commits it.
func (s *Server) ctlOffer(br *bufio.Reader, req frame) *frame {
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
	why := s.offerRefusalLocked(req)
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
	why = s.offerRefusalLocked(req)
	_, owned := s.ctl.owners[k]
	retired := 0
	switch {
	case why == "":
		if held, ok := s.ctl.snaps[k]; !ok || held.Seq <= req.Seq {
			s.ctl.snaps[k] = spool.Snapshot{Part: req.Part, Parts: req.Parts, Seq: req.Seq, Data: payload}
		}
		retired = s.commitLocked(req.Parts)
	case !owned:
		retired = req.Parts // the file just written, and its pin
	}
	s.mu.Unlock()
	if retired > 0 {
		s.dropSnapshots(retired)
	}
	if why != "" {
		return &frame{Err: why}
	}
	return &frame{}
}

// offerRefusalLocked is the reason an offer is refused, "" if it is
// not: an offer for a partitioned key must name the session admission
// last made the key's owner. So a dead worker's late offer cannot
// overwrite the state its successor adopted, and nobody offers for a
// group shape a committed rebalance retired: its owners went with its
// snapshots. Caller holds s.mu.
func (s *Server) offerRefusalLocked(req frame) string {
	if req.Parts < 2 {
		return ""
	}
	switch owner, ok := s.ctl.owners[partKey{part: req.Part, parts: req.Parts}]; {
	case !ok:
		return fmt.Sprintf("no session owns partition %d/%d (none was admitted, or a rebalance retired the group)", req.Part, req.Parts)
	case req.Session != owner:
		return fmt.Sprintf("session %q does not own partition %d/%d", req.Session, req.Part, req.Parts)
	}
	return ""
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

// ctlPrepare cuts group shape K over to K': under mu it reserves one
// sequence B and installs the fence with it, so two prepares never
// reserve two records; then it notes the cutover beside a spooled log,
// publishes its record at B, and replies with B once the record is
// published, and on disk when there is a spool. Idempotent:
// re-preparing the same K→K' returns the barrier already chosen, under
// the same rule, so a retry across a dropped connection is safe; a
// conflicting K→K” is refused, and so is a second rebalance into a
// shape one is already cutting over to. A relay hop has no sequencer of
// its own and refuses.
func (s *Server) ctlPrepare(_ *bufio.Reader, req frame) *frame {
	switch {
	case req.Parts < 2 || req.NParts < 1 || req.Parts == req.NParts:
		return &frame{Err: "invalid rebalance shape"}
	case s.log.opt.adopting:
		return &frame{Err: "broker is a relay hop: prepare the rebalance at the root broker"}
	}
	s.mu.Lock()
	f, g := s.ctl.fences[req.Parts], s.pendingLocked(req.NParts)
	fresh, why := f == nil && g == nil, ""
	switch {
	case f != nil && f.nparts != req.NParts:
		why = fmt.Sprintf("partition group %d already rebalancing to %d", req.Parts, f.nparts)
	case g != nil && g != f:
		why = fmt.Sprintf("partition group %d already rebalancing to %d", g.from, g.nparts)
	case fresh:
		if b, err := s.log.reserve(1, 0); err != nil {
			why = err.Error()
		} else {
			f = s.installLocked(req.Parts, req.NParts, b)
		}
	}
	s.mu.Unlock()
	if why != "" {
		return &frame{Err: why}
	}
	// Every sequence after B waits for the record, the note's fsync
	// included: a rebalance is rare, and the note must come first.
	err := s.noteCutover(f)
	if fresh {
		cut := []osn.Event{{Type: osn.EvCutover, Actor: osn.AccountID(f.from), Target: osn.AccountID(f.nparts)}}
		s.log.publish(s.buildChunks(f.barrier, 1, func(_, _ int, seq uint64) []byte {
			return wire.AppendBatch(nil, seq, cut)
		}))
	}
	s.log.published(f.barrier)
	if err == nil && s.log.spoolUsable() {
		err = s.log.opt.spool.Sync(f.barrier)
	}
	if err != nil {
		return &frame{Err: err.Error()}
	}
	return &frame{Parts: f.from, NParts: f.nparts, Barrier: f.barrier}
}

// installLocked holds the cutover of group shape from to a group of to
// whose record is at barrier: admission's fence, the log's barrier for
// the shape and the audit row. A fence the broker holds for from at or
// past barrier already covers the record. Caller holds s.mu.
func (s *Server) installLocked(from, to int, barrier uint64) *fence {
	if f := s.ctl.fences[from]; f != nil && f.barrier >= barrier {
		return f
	}
	f := &fence{from: from, nparts: to, barrier: barrier}
	s.ctl.fences[from] = f
	s.ctl.rebLog = append(s.ctl.rebLog, f)
	s.log.retire(from, barrier)
	return f
}

// noteCutover notes f's cutover beside a usable spool, before its
// record is appended (spool.PutCutover).
func (s *Server) noteCutover(f *fence) error {
	if !s.log.spoolUsable() {
		return nil
	}
	return s.log.opt.spool.PutCutover(spool.Cutover{From: f.from, To: f.nparts, Barrier: f.barrier})
}

// learnCutover holds the cutover named by a record a relay hop adopts
// at seq, and notes it on a spooled hop. Caller is AdoptFrame, between
// the frame's reservation and its publication, so the note precedes the
// record in the hop's spool.
func (s *Server) learnCutover(ev osn.Event, seq uint64) {
	s.mu.Lock()
	f := s.installLocked(int(ev.Actor), int(ev.Target), seq)
	s.mu.Unlock()
	if err := s.noteCutover(f); err != nil {
		log.Printf("stream: %v: a restart of this hop forgets the cutover at %d", err, seq)
	}
}

// pendingLocked returns the uncommitted rebalance into group shape
// parts, nil if there is none. Caller holds s.mu.
func (s *Server) pendingLocked(parts int) *fence {
	for _, f := range s.ctl.fences {
		if !f.committed && f.nparts == parts {
			return f
		}
	}
	return nil
}

// cutLocked returns the old group's snapshots at f's barrier, in
// partition order, or the refusal naming how many are there yet.
// Caller holds s.mu.
func (s *Server) cutLocked(f *fence) ([]spool.Snapshot, string) {
	cut := make([]spool.Snapshot, f.from)
	at := 0
	for p := range cut {
		cut[p] = s.ctl.snaps[partKey{part: p, parts: f.from}]
		if cut[p].Seq == f.barrier {
			at++
		}
	}
	if at < f.from {
		return nil, fmt.Sprintf("%s%d of partition group %d's snapshots at barrier %d", cutPendingRefusal, at, f.from, f.barrier)
	}
	return cut, ""
}

// commitLocked commits the pending rebalance into group shape parts
// once every key of the shape holds an offer at or past its barrier,
// and returns the retired old shape, whose snapshots the caller drops
// (0: nothing committed). The old shape's fence stays, so a stale
// worker of it is never re-admitted past the barrier; a stale fence
// keyed by the new shape goes, so its new owners are admitted for
// good. Caller holds s.mu.
func (s *Server) commitLocked(parts int) int {
	f := s.pendingLocked(parts)
	if f == nil {
		return 0
	}
	for p := 0; p < parts; p++ {
		if sn, ok := s.ctl.snaps[partKey{part: p, parts: parts}]; !ok || sn.Seq < f.barrier {
			return 0
		}
	}
	f.committed = true
	delete(s.ctl.fences, parts)
	return f.from
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
// handshake (DialAdopt) and subscribe from barrier+1. Idempotent per
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
