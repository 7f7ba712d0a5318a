package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sybilwild/internal/wire"
)

// This file is the v4 wire protocol's frame vocabulary. The framing
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
// package. Version 4 names each refusal's class in the reply; version
// 3, whose refusals carry only their text, carries the same binary
// event frames. A peer speaking an older version is refused at its
// first frame, so a client never reads an older broker's class-less
// refusal as an ordinary one.
const ProtocolVersion = 4

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

	// Snapshot offers (partition state kept at the broker).
	frameSnapOffer = "soffer"
	frameSnapOK    = "sok"

	// Rebalance prepare (live K→K' cutover; see control.go): rprepare
	// and its rok reply ride a short-lived connection of their own. The
	// cutover itself travels in the feed, as an event record.
	frameRebPrep = "rprepare"
	frameRebOK   = "rok"
)

// Refusal classes. A refused welcome or pwelcome names its class, and
// the client acts on the class alone; the reason (err) is for people.
// A refusal with no class is an ordinary one.
const (
	classClosing    = "closing"     // the broker is closing: nothing was lost
	classHeld       = "held"        // another connected session owns the partition key
	classCutPending = "cut-pending" // the rebalance cut an adopting hello needs is not complete
	classRebalanced = "rebalanced"  // a rebalance retired the shape: parts to nparts at barrier
	classGap        = "gap"         // the feed cannot serve the resume point: history is lost
)

// refusals maps a refusal class to the error a refused handshake's
// error wraps besides errRejected (rejected).
var refusals = map[string]error{classClosing: ErrClosing, classHeld: ErrHeld,
	classCutPending: ErrCutPending, classGap: ErrGap}

// errRejected marks a refused handshake's error, as against a failed
// connection.
var errRejected = errors.New("rejected")

// rejected is the error of rep, a refused reply to a tag request: it
// wraps errRejected and its class's error. A rebalanced refusal (only a
// hello meets one) is ErrRebalanced, wrapping the RebalancedError that
// rep's cutover fields name.
func rejected(tag string, rep *frame) error {
	switch class := refusals[rep.Class]; {
	case rep.Class == classRebalanced:
		return fmt.Errorf("%w: %w", ErrRebalanced, &RebalancedError{From: rep.Parts, To: rep.NParts, Barrier: rep.Barrier})
	case class != nil:
		return fmt.Errorf("%w: %s %w: %s", class, tag, errRejected, rep.Err)
	}
	return fmt.Errorf("stream: %s %w: %s", tag, errRejected, rep.Err)
}

// refusal is the body of a refused reply: the reason and its class.
func refusal(class, why string) *frame { return &frame{Class: class, Err: why} }

// frame is the JSON form of every control frame.
type frame struct {
	T       string `json:"t"`
	V       int    `json:"v,omitempty"`
	Session string `json:"session,omitempty"`
	Resume  uint64 `json:"resume,omitempty"`
	From    uint64 `json:"from,omitempty"`
	Err     string `json:"err,omitempty"`
	Class   string `json:"class,omitempty"` // a refusal's class (welcome, pwelcome)
	Ack     uint64 `json:"ack,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`

	// Partitioned-subscription and snapshot sub-protocol fields.
	Part  int    `json:"part,omitempty"`  // partition index (hello/soffer)
	Parts int    `json:"parts,omitempty"` // partition group size; 0 = full feed
	Size  uint64 `json:"size,omitempty"`  // snapshot payload bytes (soffer; welcome: all payloads together)
	// Adopt (hello) asks admission for the key's held snapshot: the
	// welcome echoes it, so a broker that predates adoption is told
	// apart from one that holds nothing, and carries the snapshots'
	// seq, total size and count (Snaps); their payloads follow as raw
	// frames, one per snapshot: the key's own, or a rebalance cut's K.
	// The two bools sit together, so that a frame stays in its
	// allocation size class: every ack marshals and unmarshals one.
	Adopt bool `json:"adopt,omitempty"`
	Relay bool `json:"relay,omitempty"` // hello: this subscriber is an interior relay hop (relay.go)
	Snaps int  `json:"snaps,omitempty"`

	// Publish sub-protocol fields.
	Producer  string `json:"producer,omitempty"`  // producer id (phello)
	Producers int    `json:"producers,omitempty"` // producer group size (phello)
	Epoch     uint64 `json:"epoch,omitempty"`     // producer epoch (phello request / pwelcome grant)
	Bseq      uint64 `json:"bseq,omitempty"`      // per-producer batch sequence (pack/pwelcome)
	Count     uint64 `json:"count,omitempty"`     // events durably sequenced from this producer (pwelcome)

	// Rebalance fields; a rok, and a rebalanced refusal, name the
	// cutover of group Parts to NParts at Barrier.
	// Barrier is the cutover record's sequence; in a welcome, the newest
	// committed cutover record into the hello's group shape (Reshaped).
	Barrier uint64 `json:"barrier,omitempty"`
	NParts  int    `json:"nparts,omitempty"` // new partition group size

	Hop int `json:"hop,omitempty"` // welcome: answering broker's tree depth (0 = root; relay.go)
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
