package stream

// Relay-tier tests: the sequence-adoption contract (byte-identical
// frames downstream, zero re-encodes at the interior hop), the full
// lifecycle (kill -9 of either endpoint, resume from the relay's own
// spool, eof propagation, ErrGap below upstream retention), and the
// edge serving everything a first-tier broker serves (partitioned
// fbatch subscriptions, snapshot rendezvous).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// rawFeed subscribes to addr with a hand-rolled no-ack session and
// returns every batch frame payload verbatim (copies), ending on the
// first control frame (eof). The replay window on the server must
// cover the whole feed since nothing is ever acknowledged.
type rawFeed struct {
	frames [][]byte
	events int
	err    error
}

func rawSubscribe(t *testing.T, addr, session string) <-chan rawFeed {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := writeControl(bw, frame{T: frameHello, V: ProtocolVersion, Session: session}); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	if _, err := readFrame(br, nil); err != nil { // welcome
		conn.Close()
		t.Fatal(err)
	}
	done := make(chan rawFeed, 1)
	go func() {
		defer conn.Close()
		var out rawFeed
		var buf []byte
		for {
			payload, err := readFrame(br, buf)
			if err != nil {
				out.err = err
				done <- out
				return
			}
			buf = payload
			_, k, ok := wire.ParseBatchBounds(payload)
			if !ok { // eof: clean end of feed
				done <- out
				return
			}
			out.frames = append(out.frames, append([]byte(nil), payload...))
			out.events += k
		}
	}()
	return done
}

// waitHead blocks until the server's head reaches seq — how tests
// rendezvous with a relay that adopts asynchronously.
func waitHead(t testing.TB, s *Server, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.HeadSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("head stuck at %d, want %d", s.HeadSeq(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelayByteIdentityZeroEncodes is the tentpole contract as a test:
// every frame the root encodes once crosses the interior hop and
// reaches the edge's subscriber byte-identical, the edge's Encodes
// counter never moves, and its Adopted counter accounts for every
// event. Batches are broadcast in exact maxBatch runs so neither hop's
// writer coalesces and the frame sequence is deterministic.
func TestRelayByteIdentityZeroEncodes(t *testing.T) {
	leakCheck(t)
	const batches, total = 40, 40 * DefaultMaxBatch
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+DefaultMaxBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	edge, err := NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithReplayBuffer(total+DefaultMaxBatch)))
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	rootFeed := rawSubscribe(t, root.Addr(), "raw-root")
	edgeFeed := rawSubscribe(t, edge.Addr(), "raw-edge")
	waitClients(t, root, 2) // raw subscriber + the relay itself
	waitClients(t, edge.Server(), 1)

	evs := partEvents(total, 7)
	for i := 0; i < batches; i++ {
		root.BroadcastBatch(evs[i*DefaultMaxBatch : (i+1)*DefaultMaxBatch])
	}

	// The relay's session is flagged in the root's accounting — the
	// per-hop audit line's raw material. (Checked before Close empties
	// the session table.)
	sawRelay := false
	for _, ss := range root.Stats().PerSession {
		sawRelay = sawRelay || ss.Relay
	}
	if !sawRelay {
		t.Fatal("no session marked Relay in the root's stats")
	}

	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}

	up, down := <-rootFeed, <-edgeFeed
	if up.err != nil || down.err != nil {
		t.Fatalf("subscriber errors: root %v, edge %v", up.err, down.err)
	}
	if up.events != total || down.events != total {
		t.Fatalf("delivered %d upstream / %d downstream, want %d", up.events, down.events, total)
	}
	if len(up.frames) != len(down.frames) {
		t.Fatalf("frame count differs across the hop: %d upstream, %d downstream", len(up.frames), len(down.frames))
	}
	for i := range up.frames {
		if !bytes.Equal(up.frames[i], down.frames[i]) {
			t.Fatalf("frame %d not byte-identical across the hop:\nup   %s\ndown %s",
				i, up.frames[i], down.frames[i])
		}
	}

	st := edge.Server().Stats()
	if st.Encodes != 0 {
		t.Fatalf("interior hop re-encoded %d times, want 0", st.Encodes)
	}
	if st.Adopted != total {
		t.Fatalf("Adopted = %d, want %d", st.Adopted, total)
	}
	if st.Hop != 1 {
		t.Fatalf("edge hop = %d, want 1", st.Hop)
	}
	rs := edge.Stats()
	if rs.Events != total || rs.Seq != total || rs.Reconnects != 0 {
		t.Fatalf("relay stats %+v, want %d events through seq %d with 0 reconnects", rs, total, total)
	}
}

// TestRelayEdgeKillResume is the edge half of the kill -9 lifecycle: an
// edge relay dies mid-feed (Abort: no drain, no eof, spool as a crash
// leaves it), a replacement opens the same spool directory on a new
// address, resumes upstream from exactly the first missing sequence,
// and the downstream subscriber resumes against the replacement served
// from the shared spool — no gaps, no duplicates, byte math checked by
// recvThrough's At stamps.
func TestRelayEdgeKillResume(t *testing.T) {
	leakCheck(t)
	const half, total = 1500, 3000
	rootSpool, err := spool.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rootSpool.Close()
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(64), WithSpool(rootSpool))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	edgeDir := t.TempDir()
	edgeSpool, err := spool.Open(edgeDir)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithReplayBuffer(64), WithSpool(edgeSpool)))
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, half)
	session, last := c.Session(), c.LastSeq()

	// kill -9 the edge: subscriber and upstream link die without
	// goodbye; the spool keeps what was adopted.
	edge.Abort()
	if err := edgeSpool.Close(); err != nil {
		t.Fatal(err)
	}
	c.Kick()

	// The feed runs on while the edge is down; the root's spool is what
	// heals the missed range on reconnect.
	for i := half; i < total; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}

	edgeSpool2, err := spool.Open(edgeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSpool2.Close()
	edge2, err := NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithReplayBuffer(64), WithSpool(edgeSpool2)))
	if err != nil {
		t.Fatal(err)
	}
	defer edge2.Close()

	// The subscriber resumes its session against the replacement: the
	// session id is unknown there, so admission serves the backlog from
	// the shared spool directory — disk first, live once caught up.
	c2, err := DialResume(edge2.Addr(), session, last+1)
	if err != nil {
		t.Fatalf("resume against replacement edge: %v", err)
	}
	recvThrough(t, c2, total)
	c2.Close()

	waitHead(t, edge2.Server(), total)
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := edge2.Wait(); err != nil {
		t.Fatalf("replacement relay did not end cleanly: %v", err)
	}
}

// TestRelayRootKillResume is the root half: the root dies (kill -9)
// mid-feed, restarts on the same address and spool, and the relay's
// reconnect loop resumes its session — unknown to the restarted root,
// so served from the root's spool — without losing or duplicating a
// sequence downstream.
func TestRelayRootKillResume(t *testing.T) {
	leakCheck(t)
	const half, total = 1200, 2400
	rootDir := t.TempDir()
	rootSpool, err := spool.Open(rootDir)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(64), WithSpool(rootSpool))
	if err != nil {
		t.Fatal(err)
	}
	rootAddr := root.Addr()

	edge, err := NewRelay("127.0.0.1:0", rootAddr,
		WithRelayServer(WithReplayBuffer(64)), withRelayRetries(20))
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	c, err := Dial(edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The hop must be attached before the feed starts: a resume from 1
	// that reaches a spooled root after its first sequence assignment but
	// before the first spool append is refused as below retention.
	waitClients(t, root, 1)

	for i := 0; i < half; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, half)

	root.Abort()
	if err := rootSpool.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the root on the same address and spool: the sequencer
	// continues where the spool ends, the relay reconnects with backoff.
	rootSpool2, err := spool.Open(rootDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rootSpool2.Close()
	root2, err := NewServer(rootAddr, WithReplayBuffer(64), WithSpool(rootSpool2))
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	for i := half; i < total; i++ {
		root2.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	recvThrough(t, c, total)
	if edge.Stats().Reconnects == 0 {
		t.Fatal("relay claims it never reconnected across the root restart")
	}
	c.Close() // prompt close spares the edge its drain deadline at eof
	if err := root2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly after root restart: %v", err)
	}
}

// TestRelayResumeBelowRetentionIsErrGap: when the upstream has pruned
// past what a (re)starting relay needs, the relay must fail loudly
// with ErrGap — a hidden gap would silently corrupt every consumer
// below the hop — and must not hang or spin in the reconnect loop.
func TestRelayResumeBelowRetentionIsErrGap(t *testing.T) {
	leakCheck(t)
	sp, err := spool.Open(t.TempDir(),
		spool.WithSegmentBytes(1024), spool.WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(8), WithSpool(sp))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	for i := 0; i < 3000; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	if sp.First() <= 1 {
		t.Fatal("test premise broken: retention never pruned")
	}

	// A fresh relay (empty spool) must backfill from sequence 1, which
	// the root no longer holds.
	edge, err := NewRelay("127.0.0.1:0", root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() { werr <- edge.Wait() }()
	select {
	case err := <-werr:
		if !errors.Is(err, ErrGap) {
			t.Fatalf("relay below retention: err = %v, want ErrGap", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay hung instead of surfacing ErrGap")
	}
	edge.Close()
}

// TestRelayEOFBeforeCatchup: upstream eof arrives while an edge
// subscriber is still deep in spool catch-up. The edge must finish
// serving the backlog — disk segments, then the drained window — and
// only then say eof, so a late consumer still sees the whole feed.
func TestRelayEOFBeforeCatchup(t *testing.T) {
	leakCheck(t)
	const total = 4000
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+256))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	edgeSpool, err := spool.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSpool.Close()
	edge, err := NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithReplayBuffer(32), WithSpool(edgeSpool)))
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	waitClients(t, root, 1)

	for i := 0; i < total; i++ {
		root.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	waitHead(t, edge.Server(), total)

	// Late subscriber: starts at sequence 1 against a 32-event window —
	// catch-up is served from the edge's spool, and the eof below races
	// it.
	c, err := DialFrom(edge.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		for c.LastSeq() < total {
			if _, err := c.RecvBatch(); err != nil {
				drainErr = fmt.Errorf("at seq %d: %w", c.LastSeq(), err)
				return
			}
		}
		// Whole feed seen; the next read must be the clean eof.
		if _, err := c.RecvBatch(); !errors.Is(err, ErrClosed) {
			drainErr = fmt.Errorf("after full drain: %v, want ErrClosed", err)
		}
	}()
	if err := root.Close(); err != nil { // eof heads down the tree immediately
		t.Fatal(err)
	}
	wg.Wait()
	c.Close()
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
}

// TestRelayPartitionedEdge: the edge serves everything a first-tier
// broker serves — partitioned fbatch subscriptions filtered at the
// edge (per-event global sequences intact, cursor ending at the feed
// head) and the snapshot rendezvous store for workers joining there.
func TestRelayPartitionedEdge(t *testing.T) {
	leakCheck(t)
	const K, total = 2, 1500
	evs := partEvents(total, 11)
	root, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+256))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	edge, err := NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithReplayBuffer(total+256)))
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	clients := make([]*Client, K)
	for p := 0; p < K; p++ {
		c, err := Dial(edge.Addr(), WithPartition(p, K))
		if err != nil {
			t.Fatalf("dial edge partition %d: %v", p, err)
		}
		defer c.Close()
		clients[p] = c
	}
	waitClients(t, edge.Server(), K)
	waitClients(t, root, 1) // spool-less root: the hop must be attached before the feed starts

	type result struct {
		seqs []uint64
		last uint64
		err  error
	}
	results := make([]result, K)
	var wg sync.WaitGroup
	for p, c := range clients {
		wg.Add(1)
		go func(p int, c *Client) {
			defer wg.Done()
			r := &results[p]
			for {
				batch, err := c.RecvBatch()
				if errors.Is(err, ErrClosed) {
					r.last = c.LastSeq()
					c.Close() // prompt close spares the edge its drain deadline
					return
				}
				if err != nil {
					r.err = err
					return
				}
				r.seqs = append(r.seqs, c.LastBatchSeqs()[:len(batch)]...)
			}
		}(p, c)
	}

	root.BroadcastBatch(evs)
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
	wg.Wait()
	for p := 0; p < K; p++ {
		r := results[p]
		if r.err != nil {
			t.Fatalf("partition %d: %v", p, r.err)
		}
		want := wantSeqs(evs, p, K)
		if len(r.seqs) != len(want) {
			t.Fatalf("partition %d received %d events at the edge, contract says %d", p, len(r.seqs), len(want))
		}
		for i := range want {
			if r.seqs[i] != want[i] {
				t.Fatalf("partition %d event %d has seq %d, want %d", p, i, r.seqs[i], want[i])
			}
		}
		if r.last != total {
			t.Fatalf("partition %d cursor ended at %d, want %d", p, r.last, total)
		}
	}
}

// TestRelaySnapshotRendezvousAtEdge: workers joining at an edge must
// find the snapshot rendezvous there, not at the root.
// TestRelayRejectsProducers: a relay hop's sequencer is seated by the
// upstream feed, so a wire producer publishing into it would race the
// adopted sequence space — the publish handshake must be rejected
// loudly at the hop, and still admitted at the root.
func TestRelayRejectsProducers(t *testing.T) {
	leakCheck(t)
	root, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	edge, err := NewRelay("127.0.0.1:0", root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	if _, err := NewPublisher(edge.Addr(), "p0", 1); err == nil ||
		!strings.Contains(err.Error(), "relay hop") {
		t.Fatalf("publish into a relay hop: err = %v, want a relay-hop rejection", err)
	}
	pub, err := NewPublisher(root.Addr(), "p0", 1)
	if err != nil {
		t.Fatalf("publish into the root: %v", err)
	}
	pub.Abort()
	waitClients(t, root, 1) // the relay's upstream session: a root closed before it is up ends the relay with an error
	root.Close()
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
}

func TestRelaySnapshotRendezvousAtEdge(t *testing.T) {
	leakCheck(t)
	root, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	edge, err := NewRelay("127.0.0.1:0", root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	if seq, _ := held(edge.Server(), 0, 2); seq != 0 {
		t.Fatalf("edge holds seq %d before any offer, want none", seq)
	}
	if err := OfferSnapshot(edge.Addr(), owner(t, edge.Server(), 0, 2), 0, 2, 42, []byte("edge-held")); err != nil {
		t.Fatal(err)
	}
	if seq, data := held(edge.Server(), 0, 2); seq != 42 || string(data) != "edge-held" {
		t.Fatalf("edge rendezvous holds (%d, %q), want (42, edge-held)", seq, data)
	}
	if len(root.Stats().Snapshots) != 0 {
		t.Fatalf("the edge's offer reached the root: %+v", root.Stats().Snapshots)
	}
	waitClients(t, root, 1) // the relay's upstream session
	root.Close()
	if err := edge.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
}

// TestRelayCloseDuringHandshake: an upstream that accepts the relay's
// connection and never answers its hello must not hold Close hostage
// for the handshake timeout — the relay registers the connection
// before the hello, so Close cuts the handshake.
func TestRelayCloseDuringHandshake(t *testing.T) {
	leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	relay, err := NewRelay("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var up net.Conn
	select {
	case up = <-accepted:
	case <-time.After(5 * time.Second):
		relay.Abort()
		t.Fatal("relay never dialed its upstream")
	}
	defer up.Close()
	up.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := readFrame(bufio.NewReader(up), nil)
	if err != nil || !bytes.Contains(payload, []byte(`"relay":true`)) {
		relay.Abort()
		t.Fatalf("upstream read %q (%v), want the relay's hello", payload, err)
	}

	start := time.Now()
	relay.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with the handshake unanswered, want < 1s", d)
	}
}

// TestRelayRefusesUndecodableUpstreamFrame: a relay fed a frame that
// does not decode — here a v2 JSON batch whose event carries "aux":0,
// the input that used to starve partitioned workers silently
// (cursor-only views of it, then a clean eof) — fails terminally:
// Wait returns an error, and its partitioned subscribers see their
// connections drop, never an eof claiming the feed complete.
func TestRelayRefusesUndecodableUpstreamFrame(t *testing.T) {
	leakCheck(t)
	const K = 2
	good := partEvents(16, 43)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	send := make(chan struct{})
	upstream := make(chan struct{})
	go func() { // a hand-driven upstream broker
		defer close(upstream)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := readFrame(br, nil); err != nil { // the relay's hello
			return
		}
		writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
		<-send
		for _, f := range [][]byte{
			wire.AppendBatch(nil, 1, good[:8]),
			[]byte(`{"t":"batch","seq":9,"events":[{"type":"friend_accept","at":1,"actor":3,"target":4,"aux":0}]}`),
			wire.AppendBatch(nil, 10, good[8:]),
			[]byte(`{"t":"eof"}`),
		} {
			writeFrame(conn, f)
		}
		io.Copy(io.Discard, br) // acks, until the relay hangs up
	}()
	defer func() { <-upstream }()

	relay, err := NewRelay("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	clients := make([]*Client, K)
	for p := range clients {
		if clients[p], err = Dial(relay.Addr(), WithPartition(p, K)); err != nil {
			t.Fatal(err)
		}
		defer clients[p].Close()
	}
	waitClients(t, relay.Server(), K)
	close(send)

	werr := make(chan error, 1)
	go func() { werr <- relay.Wait() }()
	select {
	case err := <-werr:
		if err == nil {
			t.Fatal("relay ended cleanly on an undecodable upstream frame")
		}
		t.Logf("relay: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("relay hung on an undecodable upstream frame")
	}
	for p, c := range clients {
		for {
			_, err := c.RecvBatch()
			if errors.Is(err, ErrClosed) {
				t.Fatalf("partition %d/%d saw a clean eof after its relay failed", p, K)
			}
			if err != nil {
				break
			}
		}
	}
}

// TestClosingRefusalIsNotErrGap: a broker that refuses a hello because it
// is closing — what feedLog.open answers on a connection accepted just
// before Close or Abort shut the listener — has lost nothing, so the
// refusal is an ordinary dial error: DialResume's error does not wrap
// ErrGap, and a relay redials instead of failing. Retention refusals
// stay ErrGap (TestResumeBelowRetentionIsErrGap,
// TestRelayResumeBelowRetentionIsErrGap).
func TestClosingRefusalIsNotErrGap(t *testing.T) {
	leakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upstream := make(chan struct{})
	go func() { // a hand-driven upstream: two closing refusals, then a feed that ends at once
		defer close(upstream)
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			if _, err := readFrame(br, nil); err == nil { // the hello
				if i < 2 {
					writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, Err: ErrClosing.Error()})
				} else {
					writeControl(conn, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
					writeControl(conn, frame{T: frameEOF})
					io.Copy(io.Discard, br)
				}
			}
			conn.Close()
		}
	}()
	defer func() { ln.Close(); <-upstream }()

	_, err = DialResume(ln.Addr().String(), "s", 5)
	if err == nil || errors.Is(err, ErrGap) || !strings.Contains(err.Error(), ErrClosing.Error()) {
		t.Fatalf("resume refused by a closing broker: err = %v, want a plain %q refusal", err, ErrClosing)
	}

	relay, err := NewRelay("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	werr := make(chan error, 1)
	go func() { werr <- relay.Wait() }()
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("relay refused by a closing upstream: Wait = %v, want a redial and a clean end", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay hung after a closing refusal")
	}
}

// TestRelayAckSchedule pins when a relay acks its upstream. A
// hand-driven upstream writes 8192 events in 8-event frames at once,
// so the relay's read buffer is seldom empty, then eof, and reads the
// acks until the relay hangs up. They rise; no two in a row (nor the
// first and the resume anchor) lie more than relayAckEvery plus one
// frame apart, so adopted events never stand unacknowledged longer
// than that; and the last one acks the last sequence.
func TestRelayAckSchedule(t *testing.T) {
	leakCheck(t)
	const total, per = 8192, 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acks := make(chan []uint64, 1)
	go func() { // a hand-driven upstream broker
		var got []uint64
		defer func() { acks <- got }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := readFrame(br, nil); err != nil { // the relay's hello
			return
		}
		go func() {
			bw := bufio.NewWriter(conn)
			writeControl(bw, frame{T: frameWelcome, V: ProtocolVersion, From: 1})
			evs := make([]osn.Event, per)
			for seq := uint64(1); seq <= total; seq += per {
				for i := range evs {
					evs[i] = testEvent(int(seq) + i)
				}
				writeFrame(bw, wire.AppendBatch(nil, seq, evs))
			}
			writeControl(bw, frame{T: frameEOF})
			bw.Flush()
		}()
		for {
			payload, err := readFrame(br, nil)
			if err != nil {
				return // the relay hung up
			}
			var f frame
			if json.Unmarshal(payload, &f) != nil || f.T != frameAck {
				t.Errorf("upstream read %q, want an ack", payload)
				return
			}
			got = append(got, f.Ack)
		}
	}()

	relay, err := NewRelay("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if err := relay.Wait(); err != nil {
		t.Fatalf("relay: %v", err)
	}
	got := <-acks
	var prev uint64
	for i, a := range got {
		if a <= prev {
			t.Fatalf("ack %d = %d after %d: acks must rise (%v)", i, a, prev, got)
		}
		if a-prev > relayAckEvery+per {
			t.Fatalf("ack %d = %d after %d: more than relayAckEvery (%d) plus one frame (%d) unacknowledged", i, a, prev, relayAckEvery, per)
		}
		prev = a
	}
	if prev != total {
		t.Fatalf("last ack %d, want %d before the relay hangs up (%d acks)", prev, total, len(got))
	}
	t.Logf("%d acks for %d events", len(got), total)
}
