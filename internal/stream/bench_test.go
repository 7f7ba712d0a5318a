package stream

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// BenchmarkBroadcastDrain is end-to-end feed throughput with one
// subscriber draining. The numbers are honest (every event broadcast
// is delivered, decoded and acknowledged — the broadcast blocks
// otherwise): v2-batched feeds the broker the way production callers
// do (BroadcastBatch runs — the single-encode hot path), v2-per-event
// is the compatibility path that pays one chunk encode per event.
func BenchmarkBroadcastDrain(b *testing.B) {
	ev := osn.Event{Type: osn.EvFriendRequest, At: 1, Actor: 2, Target: 3}

	drainV2 := func(b *testing.B, feed func(s *Server, n int)) {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		c, err := Dial(s.Addr())
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan int)
		go func() {
			n := 0
			for {
				evs, err := c.RecvBatch()
				if err != nil {
					c.Close() // prompt close lets the server tear down without waiting out the drain deadline
					done <- n
					return
				}
				n += len(evs)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		feed(s, b.N)
		s.Close() // drains the window: delivery is part of the cost
		got := <-done
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		if got != b.N {
			b.Fatalf("lost events: delivered %d of %d", got, b.N)
		}
	}

	b.Run("v2-batched", func(b *testing.B) {
		batch := make([]osn.Event, DefaultMaxBatch)
		for i := range batch {
			batch[i] = ev
		}
		drainV2(b, func(s *Server, n int) {
			for sent := 0; sent < n; {
				run := batch
				if rest := n - sent; rest < len(run) {
					run = run[:rest]
				}
				s.BroadcastBatch(run)
				sent += len(run)
			}
		})
	})

	b.Run("v2-per-event", func(b *testing.B) {
		drainV2(b, func(s *Server, n int) {
			for i := 0; i < n; i++ {
				s.BroadcastBatch([]osn.Event{ev})
			}
		})
	})
}

// BenchmarkBroadcastFanout is the single-encode fan-out claim as a
// number: the broker-side cost of feeding K subscribers the same feed.
// Every subscriber's socket carries the same shared pre-encoded
// frames, so the sequencer+encode+queue hot path should be nearly flat
// in K — only per-socket kernel writes scale. (Too noisy on a 2-vCPU
// box to gate: subs=16/subs=1 swings 0.7-3.4; RelayFanout's
// root-downstream pair is the gated form of the claim.) Subscribers
// drain raw frames (bounds
// probe only, no per-event decode: on a small runner K decoding
// clients would swamp the one broker being measured) and every event
// is verified delivered to every subscriber; the replay window covers
// the run so the timed loop is the fan-out itself, never a wait on the
// slowest reader. Events are fed through BroadcastBatch in
// maxBatch-sized runs — the shape the hot path is built for.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, subs := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			const fanoutBatch = 4 * DefaultMaxBatch // larger frames amortize per-socket syscalls
			s, err := NewServer("127.0.0.1:0",
				withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch))
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan int, subs)
			for i := 0; i < subs; i++ {
				conn, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				bw := bufio.NewWriter(conn)
				if err := writeControl(bw, frame{T: frameHello, V: ProtocolVersion,
					Session: fmt.Sprintf("bench-%d", i)}); err == nil {
					err = bw.Flush()
				}
				if err != nil {
					b.Fatal(err)
				}
				br := bufio.NewReaderSize(conn, 64<<10)
				if _, err := readFrame(br, nil); err != nil { // welcome
					b.Fatal(err)
				}
				go func(conn net.Conn, br *bufio.Reader) {
					// No acks: the replay window covers the whole run, so
					// acking per frame would only add syscalls to the
					// shared core; losslessness is still proven by the
					// per-subscriber count below.
					defer conn.Close()
					n := 0
					var buf []byte
					for {
						payload, err := readFrame(br, buf)
						if err != nil {
							done <- -1
							return
						}
						buf = payload
						_, k, ok := wire.ParseBatchBounds(payload)
						if !ok { // eof (or another control frame): drain ends
							done <- n
							return
						}
						n += k
					}
				}(conn, br)
			}
			batch := make([]osn.Event, fanoutBatch)
			for i := range batch {
				batch[i] = osn.Event{
					Type: osn.EvFriendRequest, At: int64(i),
					Actor: osn.AccountID(i), Target: osn.AccountID(i + 1),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				run := batch
				if rest := b.N - sent; rest < len(run) {
					run = run[:rest]
				}
				s.BroadcastBatch(run)
				sent += len(run)
			}
			b.StopTimer()
			s.Close() // drains every window; losslessness verified below
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
			for i := 0; i < subs; i++ {
				if got := <-done; got != b.N {
					b.Fatalf("subscriber lost events: delivered %d of %d", got, b.N)
				}
			}
		})
	}
}

// benchRawSubs attaches n no-ack raw-frame subscribers to addr and
// returns their per-subscriber delivered-event counts (sent on eof;
// -1 on error). Shared by the fan-out and relay benchmarks: bounds
// probe only, no per-event decode, so K readers don't swamp the one
// broker being measured.
func benchRawSubs(b *testing.B, addr string, n int, hold <-chan struct{}) chan int {
	b.Helper()
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		bw := bufio.NewWriter(conn)
		if err := writeControl(bw, frame{T: frameHello, V: ProtocolVersion,
			Session: fmt.Sprintf("bench-%s-%d", addr, i)}); err == nil {
			err = bw.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
		br := bufio.NewReaderSize(conn, 64<<10)
		if _, err := readFrame(br, nil); err != nil { // welcome
			b.Fatal(err)
		}
		go func(conn net.Conn, br *bufio.Reader) {
			defer conn.Close()
			if hold != nil {
				<-hold
			}
			n := 0
			var buf []byte
			for {
				payload, err := readFrame(br, buf)
				if err != nil {
					done <- -1
					return
				}
				buf = payload
				_, k, ok := wire.ParseBatchBounds(payload)
				if !ok { // eof: drain complete
					done <- n
					return
				}
				n += k
			}
		}(conn, br)
	}
	return done
}

// BenchmarkRelayFanout is the relay tier's perf claim as numbers.
//
// root-downstream=N times the root's ingest (BroadcastBatch through
// the hop's adoption, i.e. until the edge's head catches up) with N
// subscribers hanging off the edge: the bench-gate pins N=64 to within
// 1.5x of N=0, because the whole point of the tier is that downstream
// consumers cost the root nothing — they ride the edge's fan-out of
// frames the root encoded once.
//
// flat-subs=128 vs tree-edges=2x64 is the scaling claim at 100+
// subscribers: one broker draining 128 subscribers against a 2-level
// tree (root feeding 2 edge relays, 64 subscribers each), full drain
// included in the timed region. On multi-core hardware the tree wins
// outright — each edge's write loop runs on its own core and the root
// only serves 2 sessions; the CI gate allows modest slack because a
// single-core runner serializes all 130 socket streams, making the
// tree's strictly-larger total work visible instead of its
// parallelism.
func BenchmarkRelayFanout(b *testing.B) {
	const fanoutBatch = 4 * DefaultMaxBatch
	batch := make([]osn.Event, fanoutBatch)
	for i := range batch {
		batch[i] = osn.Event{
			Type: osn.EvFriendRequest, At: int64(i),
			Actor: osn.AccountID(i), Target: osn.AccountID(i + 1),
		}
	}
	feed := func(s *Server, n int) {
		for sent := 0; sent < n; {
			run := batch
			if rest := n - sent; rest < len(run) {
				run = run[:rest]
			}
			s.BroadcastBatch(run)
			sent += len(run)
		}
	}
	drain := func(b *testing.B, done chan int, subs int) {
		b.Helper()
		for i := 0; i < subs; i++ {
			if got := <-done; got != b.N {
				b.Fatalf("subscriber lost events: delivered %d of %d", got, b.N)
			}
		}
	}

	for _, downstream := range []int{0, 64} {
		b.Run(fmt.Sprintf("root-downstream=%d", downstream), func(b *testing.B) {
			root, err := NewServer("127.0.0.1:0",
				withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch))
			if err != nil {
				b.Fatal(err)
			}
			edge, err := NewRelay("127.0.0.1:0", root.Addr(),
				WithRelayServer(withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch)))
			if err != nil {
				b.Fatal(err)
			}
			hold := make(chan struct{})
			done := benchRawSubs(b, edge.Addr(), downstream, hold)
			waitClients(b, root, 1) // the hop is attached before the feed starts: no backfill in the timed region
			b.ReportAllocs()
			b.ResetTimer()
			feed(root, b.N)
			waitHead(b, edge.Server(), uint64(b.N)) // the hop's adoption is part of ingest
			b.StopTimer()
			close(hold)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
			if err := root.Close(); err != nil {
				b.Fatal(err)
			}
			if err := edge.Wait(); err != nil {
				b.Fatal(err)
			}
			drain(b, done, downstream)
			if enc := edge.Server().Stats().Encodes; enc != 0 {
				b.Fatalf("interior hop re-encoded %d times, want 0", enc)
			}
		})
	}

	b.Run("flat-subs=128", func(b *testing.B) {
		s, err := NewServer("127.0.0.1:0",
			withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch))
		if err != nil {
			b.Fatal(err)
		}
		done := benchRawSubs(b, s.Addr(), 128, nil)
		b.ReportAllocs()
		b.ResetTimer()
		feed(s, b.N)
		s.Close() // full drain to 128 subscribers is the measured cost
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		drain(b, done, 128)
	})

	b.Run("tree-edges=2x64", func(b *testing.B) {
		root, err := NewServer("127.0.0.1:0",
			withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch))
		if err != nil {
			b.Fatal(err)
		}
		edges := make([]*Relay, 2)
		var done [2]chan int
		for i := range edges {
			edges[i], err = NewRelay("127.0.0.1:0", root.Addr(),
				WithRelayServer(withMaxBatch(fanoutBatch), WithReplayBuffer(b.N+fanoutBatch)))
			if err != nil {
				b.Fatal(err)
			}
			done[i] = benchRawSubs(b, edges[i].Addr(), 64, nil)
		}
		waitClients(b, root, 2) // both hops attached before the feed starts
		b.ReportAllocs()
		b.ResetTimer()
		feed(root, b.N)
		if err := root.Close(); err != nil { // eof cascades; edges drain their 64 each
			b.Fatal(err)
		}
		for _, e := range edges {
			if err := e.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		for i := range edges {
			drain(b, done[i], 64)
		}
	})
}

// BenchmarkResumeFromDisk is the two-tier replay path end to end: the
// whole feed is broadcast through a server whose in-memory window
// holds only 64 events, then a subscriber resumes from sequence 1 —
// every event it drains is served from spool segments before the
// session flips back to the live ring.
func BenchmarkResumeFromDisk(b *testing.B) {
	sp, err := spool.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	s, err := NewServer("127.0.0.1:0", WithReplayBuffer(64), WithSpool(sp))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ev := osn.Event{Type: osn.EvFriendRequest, At: 1, Actor: 2, Target: 3}
	// Register the session, then fill the spool while it is detached:
	// by resume time the memory ring holds only the newest 64 events.
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	session := c.Session()
	c.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for s.NumClients() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < b.N; i++ {
		s.BroadcastBatch([]osn.Event{ev})
	}
	b.ReportAllocs()
	b.ResetTimer()
	c2, err := DialResume(s.Addr(), session, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c2.Close()
	got := 0
	for uint64(got) < uint64(b.N) {
		evs, err := c2.RecvBatch()
		if err != nil {
			b.Fatalf("drain at %d of %d: %v", got, b.N, err)
		}
		got += len(evs)
	}
	b.StopTimer()
	b.ReportMetric(float64(got)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkPublishIngest measures the wire-fed broker end to end:
// K publishers over loopback TCP, the global sequencer merging their
// batches, one subscriber draining the totally ordered feed. The
// 1-vs-4 comparison is the concurrent-producer path's price and
// payoff: more producers mean more sequencer contention but also more
// pipelined encode/transmit work feeding it.
func BenchmarkPublishIngest(b *testing.B) {
	ev := osn.Event{Type: osn.EvFriendRequest, At: 1, Actor: 2, Target: 3}
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			srv, err := NewServer("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			sub, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan int)
			go func() {
				n := 0
				for {
					evs, err := sub.RecvBatch()
					if err != nil {
						sub.Close()
						done <- n
						return
					}
					n += len(evs)
				}
			}()
			per := b.N / producers
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for pi := 0; pi < producers; pi++ {
				wg.Add(1)
				go func(pi int) {
					defer wg.Done()
					pub, err := NewPublisher(srv.Addr(), fmt.Sprintf("p%d", pi), producers)
					if err != nil {
						b.Error(err)
						return
					}
					n := per
					if pi == 0 {
						n += b.N % producers
					}
					for i := 0; i < n; i++ {
						if err := pub.Publish(ev); err != nil {
							b.Error(err)
							return
						}
					}
					if err := pub.Close(); err != nil {
						b.Error(err)
					}
				}(pi)
			}
			wg.Wait()
			if !b.Failed() {
				// Only wait for epoch closure when every producer got
				// there; an errored producer never sends peof.
				<-srv.IngestDone()
			}
			srv.Close() // drains the subscriber: delivery is part of the cost
			got := <-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
			if !b.Failed() && got != b.N {
				b.Fatalf("lost events: delivered %d of %d", got, b.N)
			}
		})
	}
}
