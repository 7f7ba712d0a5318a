package stream

import (
	"encoding/json"
	"io"

	"sybilwild/internal/wire"
)

// This file is the v3 wire protocol's frame vocabulary. The framing
// and the event frame codec live one layer down in internal/wire
// (shared with the disk spool, whose segments hold byte-identical
// frames); the full specification — handshake, sequence and ack
// semantics, resume rules, the byte layout of the event frames — is in
// docs/ARCHITECTURE.md.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. The three frames that carry events — batch, pbatch and
// fbatch — are binary (internal/wire owns their layout; this package
// never looks inside one). Every other frame is a control frame: a
// JSON object whose "t" field names its type, so a payload whose first
// byte is '{' is a control frame and any other is an event frame. The
// subscribe side:
//
//	client → server   hello {"t":"hello","v":3,"session":S,"resume":R}
//	                  ack   {"t":"ack","ack":N}
//	server → client   welcome {"t":"welcome","v":3,"from":F}
//	                          {"t":"welcome","v":3,"err":"..."}
//	                  batch   binary: first sequence F, events
//	                  eof     {"t":"eof"}
//
// Events inside a batch frame carry consecutive sequence numbers
// starting at the frame's first sequence; acks name the highest
// sequence the client has delivered to its application.
//
// A relay hop (streamd -relay; see relay.go) subscribes with the same
// hello, flagged "relay":true so the upstream broker's audit can tell
// an interior hop from a leaf consumer. Every welcome carries "hop",
// the answering broker's depth in the relay tree (0 = the root broker,
// omitted from the JSON; a relay serves hop = upstream's hop + 1), so
// each hop learns its depth from its upstream at handshake time:
//
//	relay → broker    hello   {"t":"hello","v":3,"session":S,"resume":R,"relay":true}
//	broker → relay    welcome {"t":"welcome","v":3,"from":F,"hop":H}
//
// A partitioned subscriber (hello carries "part" and "parts") receives
// filtered batches instead — its slice of the feed is sparse in the
// global order, so each event carries its own sequence and the frame
// carries "last", the feed cursor the frame advances the subscriber
// to (an fbatch with no events purely moves the cursor past
// filtered-out foreign events):
//
//	server → client   fbatch  binary: cursor L, events each with its sequence
//
// The snapshot sub-protocol (same listen port, the first frame's type
// selects the role; one short-lived connection per transfer) moves a
// partition's serialized detector state through the broker:
//
//	worker → broker   soffer {"t":"soffer","v":3,"part":I,"parts":K,"seq":S,"size":B}
//	                  <raw payload frame of B bytes>
//	broker → worker   sok    {"t":"sok"}  /  {"t":"sok","err":"..."}
//
//	worker → broker   sfetch {"t":"sfetch","v":3,"part":I,"parts":K}
//	broker → worker   snap   {"t":"snap","part":I,"parts":K,"seq":S,"size":B}
//	                  <raw payload frame of B bytes>
//	                  — or {"t":"snap","err":"none"} when nothing is held
//
// The broker stores the highest-sequence snapshot per (part, parts)
// key; offers at or above the held sequence replace it, stale offers
// are acknowledged and dropped.
//
// The rebalance sub-protocol (live K→K' cutover; one short-lived
// connection per control exchange, same port). A prepare fences the
// old group at a barrier — the broker's current head sequence — and
// every fenced subscriber receives, in-stream after its last event at
// or below the barrier, a rebal announcement instead of more feed:
//
//	coordinator → broker   rprepare {"t":"rprepare","v":3,"parts":K,"nparts":N}
//	broker → coordinator   rok      {"t":"rok","barrier":B}  /  {"t":"rok","err":"..."}
//	coordinator → broker   rcommit  {"t":"rcommit","v":3,"parts":K,"nparts":N,"barrier":B}
//	broker → subscriber    rebal    {"t":"rebal","barrier":B,"parts":K,"nparts":N}   (in-stream)
//
//	standby → broker       rstatus  {"t":"rstatus","v":3,"part":I,"parts":K}
//	broker → standby       rinfo    {"t":"rinfo","connected":C,"seen":true,"seq":S,"barrier":B}
//	standby → broker       rclaim   {"t":"rclaim","v":3,"part":I,"parts":K,"session":ID}
//	broker → standby       rok      {"t":"rok"}  /  {"t":"rok","err":"..."}
//
// rinfo reads as PartitionStatus; a granted rclaim refuses other
// sessions the key until its holder connects or its linger expires.
//
// The first frame of every conversation carries "v". A broker refuses
// any other version with the reply tag the request expects (welcome,
// pwelcome, sok, snap, rok, rinfo: the first-frame table in control.go)
// and "err":"unsupported protocol version N", then hangs up.
//
// The publish side (producer → broker, over the same listen port; the
// first frame's type selects the role):
//
//	producer → broker   phello {"t":"phello","v":3,"producer":P,"producers":K,"epoch":E}
//	                    pbatch binary: batch sequence B, events
//	                    peof   {"t":"peof"}
//	broker → producer   pwelcome {"t":"pwelcome","v":3,"epoch":E,"bseq":B,"count":C}
//	                             {"t":"pwelcome","v":3,"err":"..."}
//	                    pack     {"t":"pack","bseq":B}
//	                             {"t":"pack","err":"..."}
//	                    peof     {"t":"peof"}
//
// A producer names itself (producer id P), declares the size K of its
// producer group, and either continues its current epoch (E > 0, a
// reconnect within one process lifetime) or asks for a fresh one
// (E = 0, a restarted process). The pwelcome grants the epoch and
// reports B, the highest producer batch sequence the broker has
// already sequenced in that epoch (resend only above it), and C, the
// total events durably sequenced from this producer across all epochs
// (a deterministic producer skips that many on restart). pbatch
// sequences are per producer and contiguous from 1 within an epoch;
// the broker drops (but still acks) replays at or below B, so a
// reconnect that resends in-flight batches delivers them downstream
// exactly once. A frame that is neither a decodable pbatch nor peof is
// refused with a pack carrying "err", and the broker hangs up. peof
// closes the producer's epoch for good; the broker confirms with a peof
// of its own and ends the downstream feed only after every one of the K
// producers has closed.

// ProtocolVersion is the feed protocol generation spoken by this
// package. Version 3 carries events in binary frames; a peer speaking
// version 2 (JSON event frames) is refused at its first frame, like
// version 1 (unframed newline-delimited JSON, no sequencing,
// drop-oldest overflow).
const ProtocolVersion = 3

// Control frame type tags.
const (
	frameHello   = "hello"
	frameWelcome = "welcome"
	frameAck     = "ack"
	frameEOF     = "eof"

	// Publish sub-protocol (producer → broker ingest).
	framePHello   = "phello"
	framePWelcome = "pwelcome"
	framePAck     = "pack"
	framePEOF     = "peof"

	// Snapshot sub-protocol (partition state through the broker).
	frameSnapOffer = "soffer"
	frameSnapFetch = "sfetch"
	frameSnapOK    = "sok"
	frameSnap      = "snap"

	// Rebalance sub-protocol (live K→K' cutover; see control.go).
	// rebal is the in-stream cutover announcement sent to fenced
	// partition subscribers; the rest are control frames on their own
	// short-lived connections.
	frameRebal     = "rebal"
	frameRebPrep   = "rprepare"
	frameRebCommit = "rcommit"
	frameRebOK     = "rok"
	frameRebStatus = "rstatus"
	frameRebInfo   = "rinfo"
	frameRebClaim  = "rclaim"
)

// snapNone is the well-known error a snapshot fetch gets when the
// broker holds nothing for the partition; the client maps it to
// ErrNoSnapshot.
const snapNone = "none"

// frame is the JSON form of every control frame.
type frame struct {
	T       string `json:"t"`
	V       int    `json:"v,omitempty"`
	Session string `json:"session,omitempty"`
	Resume  uint64 `json:"resume,omitempty"`
	From    uint64 `json:"from,omitempty"`
	Err     string `json:"err,omitempty"`
	Ack     uint64 `json:"ack,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`

	// Partitioned-subscription and snapshot sub-protocol fields.
	Part  int    `json:"part,omitempty"`  // partition index (hello/soffer/sfetch/snap)
	Parts int    `json:"parts,omitempty"` // partition group size; 0 = full feed
	Size  uint64 `json:"size,omitempty"`  // snapshot payload bytes (soffer/snap)

	// Publish sub-protocol fields.
	Producer  string `json:"producer,omitempty"`  // producer id (phello)
	Producers int    `json:"producers,omitempty"` // producer group size (phello)
	Epoch     uint64 `json:"epoch,omitempty"`     // producer epoch (phello request / pwelcome grant)
	Bseq      uint64 `json:"bseq,omitempty"`      // per-producer batch sequence (pack/pwelcome)
	Count     uint64 `json:"count,omitempty"`     // events durably sequenced from this producer (pwelcome)

	// Rebalance sub-protocol fields.
	Barrier   uint64 `json:"barrier,omitempty"`   // cutover barrier sequence (rprepare reply, rcommit, rebal, rinfo)
	NParts    int    `json:"nparts,omitempty"`    // new partition group size (rprepare, rcommit, rebal)
	Connected int    `json:"connected,omitempty"` // connected sessions on the partition key (rinfo)
	Seen      bool   `json:"seen,omitempty"`      // a worker was ever admitted on the key (rinfo)

	// Relay-tier handshake fields (relay.go).
	Relay bool `json:"relay,omitempty"` // hello: this subscriber is an interior relay hop
	Hop   int  `json:"hop,omitempty"`   // welcome: answering broker's tree depth (0 = root)
}

// writeFrame emits one length-prefixed frame payload.
func writeFrame(w io.Writer, payload []byte) error { return wire.WriteFrame(w, payload) }

// writeControl marshals and emits a control frame.
func writeControl(w io.Writer, f frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return writeFrame(w, payload)
}

// readFrame reads one length-prefixed payload, reusing buf when it is
// large enough. The returned slice is only valid until the next call.
func readFrame(r io.Reader, buf []byte) ([]byte, error) { return wire.ReadFrame(r, buf) }
