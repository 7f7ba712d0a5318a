package stream

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// TestVersionRefusalUsesReplyTag opens a raw connection with each of
// the four first-frame tags at protocol version 1: the refusal must
// carry the tag the client of that exchange waits for, so it reports
// the version error instead of an unexpected reply.
func TestVersionRefusalUsesReplyTag(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct{ req, reply string }{
		{frameHello, frameWelcome},
		{framePHello, framePWelcome},
		{frameSnapOffer, frameSnapOK},
		{frameRebPrep, frameRebOK},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeControl(conn, frame{T: tc.req, V: 1}); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(bufio.NewReader(conn), nil)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: reading the refusal: %v", tc.req, err)
		}
		var rep frame
		if err := json.Unmarshal(payload, &rep); err != nil {
			t.Fatalf("%s: refusal %q: %v", tc.req, payload, err)
		}
		if rep.T != tc.reply || rep.Err != "unsupported protocol version 1" {
			t.Errorf("%s at v1 answered %s, want a %s refusing version 1", tc.req, payload, tc.reply)
		}
	}
}

// owner admits a session on key part/parts, as a worker's first dial
// does, and returns its id: the key then takes offers from it alone.
// The session has detached when owner returns; its ownership stays.
func owner(t *testing.T, srv *Server, part, parts int) string {
	t.Helper()
	c, err := Dial(srv.Addr(), WithPartition(part, parts))
	if err != nil {
		t.Fatalf("admitting an owner of %d/%d: %v", part, parts, err)
	}
	closeDetached(t, srv, c)
	return c.Session()
}

// closeDetached closes c and waits until srv no longer counts its
// session as connected, so the session's key is free for the next dial.
func closeDetached(t *testing.T, srv *Server, c *Client) {
	t.Helper()
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		connected := false
		for _, ss := range srv.Stats().PerSession {
			connected = connected || (ss.ID == c.Session() && ss.Connected)
		}
		if !connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never detached", c.Session())
		}
	}
}

// held returns the snapshot srv holds for key part/parts: its sequence
// and payload, 0 and nil when it holds none.
func held(srv *Server, part, parts int) (uint64, []byte) {
	for _, sn := range srv.Stats().Snapshots {
		if sn.Part == part && sn.Parts == parts {
			return sn.Seq, sn.Data
		}
	}
	return 0, nil
}
