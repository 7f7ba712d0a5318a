package stream

import (
	"encoding/json"
	"io"

	"sybilwild/internal/wire"
)

// This file is the v3 wire protocol's frame vocabulary. The framing
// and the event frame codec live one layer down in internal/wire
// (shared with the disk spool, whose segments hold byte-identical
// frames). The three frames that carry events — batch, pbatch and
// fbatch — are binary, and this package never looks inside one; every
// other frame is a JSON control frame whose "t" field names its type,
// so a payload whose first byte is '{' is a control frame
// (wire.IsControl). The specification — handshake, sequence and ack
// semantics, resume rules, every control frame and the byte layout of
// the event frames — is in docs/ARCHITECTURE.md.

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
	Seen      bool   `json:"seen,omitempty"`      // a worker was admitted here, or the key's snapshot was reloaded restartGrace ago (rinfo)

	// Relay-tier handshake fields (relay.go).
	Relay bool `json:"relay,omitempty"` // hello: this subscriber is an interior relay hop
	Hop   int  `json:"hop,omitempty"`   // welcome: answering broker's tree depth (0 = root)
}

// writeFrame emits one length-prefixed frame payload.
func writeFrame(w io.Writer, payload []byte) error { return wire.WriteFrame(w, payload) }

// marshalControl is the one encoder of control frames. A frame holds
// only strings, numbers and bools, so marshalling cannot fail.
func marshalControl(f frame) []byte {
	payload, _ := json.Marshal(f)
	return payload
}

// writeControl marshals and emits a control frame.
func writeControl(w io.Writer, f frame) error { return writeFrame(w, marshalControl(f)) }

// readFrame reads one length-prefixed payload, reusing buf when it is
// large enough. The returned slice is only valid until the next call.
func readFrame(r io.Reader, buf []byte) ([]byte, error) { return wire.ReadFrame(r, buf) }
