package stream

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// TestVersionRefusalUsesReplyTag opens a raw connection with each of
// the six first-frame tags at protocol version 1: the refusal must
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
		{frameSnapFetch, frameSnap},
		{frameRebPrep, frameRebOK},
		{frameRebCommit, frameRebOK},
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
