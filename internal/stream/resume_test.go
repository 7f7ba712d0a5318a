package stream

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// TestResumeAfterKill kills the client's connection mid-stream and
// redials with the last delivered sequence: the combined stream must
// have no gap and no duplicate.
func TestResumeAfterKill(t *testing.T) {
	const total = 3000
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < total/3; i++ {
		ev, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("event %d: At=%d", i, ev.At)
		}
	}
	c.conn.Close() // hard kill, no goodbye

	c2, err := DialResume(s.Addr(), c.Session(), c.LastSeq()+1)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer c2.Close()
	for i := total / 3; i < total; i++ {
		ev, err := c2.Recv()
		if err != nil {
			t.Fatalf("recv %d after resume: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("gap or duplicate after resume: event %d has At=%d", i, ev.At)
		}
	}
}

// TestResumeResendsInFlight asks the server to rewind to a sequence
// the client already received but did not acknowledge: the server must
// resend its in-flight window (at-least-once), and the client-side
// dedupe must swallow the overlap so Recv stays exactly-once.
func TestResumeResendsInFlight(t *testing.T) {
	const total = 600
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(total+16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		s.BroadcastBatch([]osn.Event{testEvent(i)})
	}
	for i := 0; i < 500; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	c.conn.Close()
	if c.acked >= c.LastSeq() {
		t.Fatalf("test premise broken: everything delivered (%d) was already acked (%d)",
			c.LastSeq(), c.acked)
	}
	// Rewind to the first unacked sequence, behind what was delivered.
	// The wire carries the overlap again; LastSeq-based dedupe must
	// discard it.
	from := c.acked + 1
	c2, err := DialResume(s.Addr(), c.Session(), from)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer c2.Close()
	c2.lastSeq = c.LastSeq() // what the application really saw
	c2.acked = c2.lastSeq
	for i := 500; i < total; i++ {
		ev, err := c2.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ev.At != int64(i) {
			t.Fatalf("dedupe failed: event %d has At=%d", i, ev.At)
		}
	}
}

// waitDetached blocks until the server has noticed its only client's
// connection is gone (so the next broadcasts exercise the detached
// code path deterministically).
func waitDetached(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.NumClients() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// killableProxy forwards TCP to a target and can kill all active
// connections, simulating a network blip between subscriber and feed.
type killableProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn

	accepted atomic.Int32
	wg       sync.WaitGroup
}

func newKillableProxy(t *testing.T, target string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln, target: target}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.accepted.Add(1)
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() { defer p.wg.Done(); io.Copy(out, in); out.Close(); in.Close() }()
			go func() { defer p.wg.Done(); io.Copy(in, out); in.Close(); out.Close() }()
		}
	}()
	return p
}

func (p *killableProxy) Addr() string { return p.ln.Addr().String() }

func (p *killableProxy) killConns() {
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

func (p *killableProxy) Close() {
	p.ln.Close()
	p.killConns()
	p.wg.Wait()
}

// TestSubscribeResumesAcrossKillNoFlagDivergence is the satellite
// end-to-end check: stream a full Sybil campaign log to a subscriber
// feeding a detection pipeline, kill the connection mid-stream
// (SubscribeBatch must transparently resume), and require the flag set to
// match a serial pipeline replay of the same log exactly — any lost or
// duplicated event would shift a feature counter and diverge the
// verdicts.
func TestSubscribeResumesAcrossKillNoFlagDivergence(t *testing.T) {
	pop := agents.NewPopulation(17, agents.DefaultParams())
	pop.Bootstrap(800)
	pop.LaunchSybils(15, 30*sim.TicksPerHour)
	pop.RunFor(120 * sim.TicksPerHour)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10}

	// Reference: serial replay, no network.
	ref := detector.NewPipeline(rule, g)
	ref.Ingest(detector.Batch{Events: events})
	if ref.FlaggedCount() == 0 {
		t.Fatal("serial replay flagged nothing; divergence test is vacuous")
	}

	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(len(events)+16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	proxy := newKillableProxy(t, s.Addr())
	defer proxy.Close()

	live := detector.NewPipeline(rule, g)
	var received atomic.Int64
	killAt := int64(len(events) / 3)
	done := make(chan error, 1)
	go func() {
		done <- SubscribeBatch(proxy.Addr(), func(evs []osn.Event) {
			for _, ev := range evs {
				if received.Add(1) == killAt {
					proxy.killConns() // mid-stream network blip
				}
				live.Observe(ev)
			}
		}, 10)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for s.NumClients() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, ev := range events {
		s.BroadcastBatch([]osn.Event{ev})
	}
	// The whole feed can reach the client's socket buffer before the
	// kill, so every event arrives and only then does its resume race
	// Close, which refuses it: wait for the resumed session's acks too.
	for (received.Load() < int64(len(events)) || s.Stats().Delivered < uint64(len(events))) &&
		time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if got := received.Load(); got != int64(len(events)) {
		t.Fatalf("delivered %d events across the kill, want exactly %d", got, len(events))
	}
	if proxy.accepted.Load() < 2 {
		t.Fatalf("proxy saw %d connections; the kill never forced a resume", proxy.accepted.Load())
	}

	want := ref.FlaggedIDs()
	got := live.FlaggedIDs()
	if len(want) != len(got) {
		t.Fatalf("flag divergence: serial replay flagged %d, resumed stream flagged %d", len(want), len(got))
	}
	wantSet := make(map[osn.AccountID]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	for _, id := range got {
		if !wantSet[id] {
			t.Fatalf("flag divergence: account %d flagged only over the resumed stream", id)
		}
	}
}
