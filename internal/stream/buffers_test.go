package stream

// Buffer discipline of the live path (docs/ARCHITECTURE.md, "Buffer
// ownership"): transient buffers are scratch owned by one goroutine
// and reused; retained payloads are exact-size immutable copies. These
// tests hold both halves — nothing retained may alias scratch, and the
// reuse must keep the allocation cost per event inside a budget — plus
// the encode accounting and the refusal of undecodable adopted frames
// that ride on the same code.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sybilwild/internal/campaign"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// spooledTree brings up publisher-ready root → relay, both spooled and
// both with a replay window of `window` events. The spools live in
// dir/root and dir/relay.
func spooledTree(t *testing.T, window int) (root *Server, relay *Relay, rootSpool, relaySpool *spool.Spool, dir string) {
	t.Helper()
	dir = t.TempDir()
	rootSpool, err := spool.Open(filepath.Join(dir, "root"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSpool.Close() })
	relaySpool, err = spool.Open(filepath.Join(dir, "relay"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relaySpool.Close() })
	root, err = NewServer("127.0.0.1:0", WithSpool(rootSpool), WithReplayBuffer(window))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	relay, err = NewRelay("127.0.0.1:0", root.Addr(),
		WithRelayServer(WithSpool(relaySpool), WithReplayBuffer(window)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	waitClients(t, root, 1) // the relay's upstream session
	return root, relay, rootSpool, relaySpool, dir
}

// publishAll feeds evs through pub in order and closes its epoch.
func publishAll(t *testing.T, pub *Publisher, evs []osn.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkSpoolFrames closes the spool written in dir (flushing what it
// buffers) and asserts every frame it holds on disk is byte-identical
// to a fresh canonical encode of the events it covers.
func checkSpoolFrames(t *testing.T, written *spool.Spool, dir string, evs []osn.Event) {
	t.Helper()
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	sp, err := spool.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rd, err := sp.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	next := uint64(1)
	for {
		first, n, payload, err := rd.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if first != next {
			t.Fatalf("%s: frame starts at %d, want %d", dir, first, next)
		}
		if want := wire.AppendBatch(nil, first, evs[first-1:first-1+uint64(n)]); !bytes.Equal(payload, want) {
			t.Fatalf("%s: spooled frame at seq %d diverges from its events:\n%s\n%s", dir, first, payload, want)
		}
		next = first + uint64(n)
	}
	if next != uint64(len(evs))+1 {
		t.Fatalf("%s: spool ends at seq %d, want %d", dir, next-1, len(evs))
	}
}

// TestRetainedPayloadsNeverAliasScratch: two subscribers on a spooled
// relay read nothing while 200 full batches cross publisher → root →
// relay, so every chunk sits in their windows (and one of them blocked
// mid-write on a full socket) while each encode scratch on the path —
// the publisher's recycled payloads, the root connection's encode
// buffer, both brokers' fan-out buffers — is reused hundreds of times.
// What they finally read, and what both spools hold, must still be the
// canonical encoding of the original events.
func TestRetainedPayloadsNeverAliasScratch(t *testing.T) {
	leakCheck(t)
	const K, batches = 2, 200
	const total = batches * DefaultMaxBatch
	evs := campaign.Burst(19, 100_000, 1)[:total]
	root, relay, rootSpool, relaySpool, dir := spooledTree(t, total+DefaultMaxBatch)

	full := dialRawSub(t, relay.Addr(), "slow-full", 0, 0)
	part := dialRawSub(t, relay.Addr(), "slow-part", 1, K)
	waitClients(t, relay.Server(), 2)

	pub, err := NewPublisher(root.Addr(), "alias", 1, withPublishFlushEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, pub, evs)
	waitHead(t, relay.Server(), total)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, sub := range []*rawSub{full, part} {
		wg.Add(1)
		go func(i int, sub *rawSub) {
			defer wg.Done()
			errs[i] = sub.drain()
		}(i, sub)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slow subscriber %d: %v", i, err)
		}
	}

	full.checkBatches(t, evs)
	owned := part.checkFBatches(t, 1, K)
	want := wantSeqs(evs, 1, K)
	if len(owned) != len(want) {
		t.Fatalf("partition 1/%d received %d events, contract says %d", K, len(owned), len(want))
	}
	for _, seq := range want {
		if owned[seq] != evs[seq-1] {
			t.Fatalf("partition 1/%d seq %d carries %+v, want %+v", K, seq, owned[seq], evs[seq-1])
		}
	}
	if st := relay.Server().Stats(); st.Evicted != 0 {
		t.Fatalf("relay evicted %d sessions", st.Evicted)
	}
	checkSpoolFrames(t, rootSpool, filepath.Join(dir, "root"), evs)
	checkSpoolFrames(t, relaySpool, filepath.Join(dir, "relay"), evs)
}

// ackingBroker speaks the broker half of the publish sub-protocol on
// one connection, far enough for a Publisher to run against it: it
// answers the phello with a pwelcome reporting `have` batches, hands
// every pbatch payload (valid only during the call) to onBatch, sends
// a pack for the sequence onBatch returns (0 = none) and hangs up when
// it says so. A peof is confirmed and ends the connection. After the
// handshake it allocates nothing, so allocation counts taken around a
// Publisher talking to it are the Publisher's own.
func ackingBroker(conn net.Conn, have uint64, onBatch func(bseq uint64, payload []byte) (ack uint64, hangup bool)) error {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	if _, err := readFrame(br, nil); err != nil { // phello
		return err
	}
	if err := writeControl(conn, frame{T: framePWelcome, V: ProtocolVersion, Epoch: 1, Bseq: have}); err != nil {
		return err
	}
	var buf, ackPayload, ackFrame []byte
	evbuf := make([]osn.Event, 0, DefaultMaxBatch)
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return err
		}
		buf = payload
		bseq, _, ok := wire.ParsePBatch(payload, evbuf[:0])
		if !ok { // the only control frame a publisher sends is peof
			return writeControl(conn, frame{T: framePEOF})
		}
		ack, hangup := onBatch(bseq, payload)
		if hangup {
			return nil
		}
		if ack > 0 {
			ackPayload = strconv.AppendUint(append(ackPayload[:0], `{"t":"pack","bseq":`...), ack, 10)
			ackPayload = append(ackPayload, '}')
			ackFrame = wire.AppendFrame(ackFrame[:0], ackPayload)
			if _, err := conn.Write(ackFrame); err != nil {
				return err
			}
		}
	}
}

// TestPublisherResendsByteIdentical guards the publisher's free list:
// a payload buffer may be recycled only once its batch is acknowledged.
// The broker acks the first 6 batches (so their buffers are reused for
// later ones), kills the connection with batches still in flight, and
// on the reconnect compares every resent pbatch to its first
// transmission; every batch must also equal a fresh encode of its
// events.
func TestPublisherResendsByteIdentical(t *testing.T) {
	leakCheck(t)
	const per, batches, ackedBeforeKill, killAt = 64, 30, 6, 12
	evs := campaign.Burst(23, 100_000, 1)[:per*batches]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	seen := make(map[uint64][]byte) // first transmission of each batch
	resent := 0
	brokerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			brokerDone <- err
			return
		}
		ackingBroker(conn, 0, func(bseq uint64, payload []byte) (uint64, bool) {
			seen[bseq] = bytes.Clone(payload)
			if bseq <= ackedBeforeKill {
				return bseq, false
			}
			return 0, bseq == killAt
		})
		if conn, err = ln.Accept(); err != nil {
			brokerDone <- err
			return
		}
		next := uint64(ackedBeforeKill + 1)
		brokerDone <- ackingBroker(conn, ackedBeforeKill, func(bseq uint64, payload []byte) (uint64, bool) {
			if bseq != next {
				t.Errorf("after the reconnect batch %d arrived, want %d", bseq, next)
			}
			next = bseq + 1
			if first, ok := seen[bseq]; ok {
				resent++
				if !bytes.Equal(first, payload) {
					t.Errorf("resent batch %d differs from its first transmission:\n%s\n%s", bseq, first, payload)
				}
			} else {
				seen[bseq] = bytes.Clone(payload)
			}
			return bseq, false
		})
	}()

	pub, err := NewPublisher(ln.Addr().String(), "resend", 1,
		withPublishMaxBatch(per), withPublishWindow(8), withPublishFlushEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, pub, evs)
	if err := <-brokerDone; err != nil {
		t.Fatalf("broker: %v", err)
	}
	if st := pub.Stats(); st.Resent == 0 || resent < killAt-ackedBeforeKill {
		t.Fatalf("publisher resent %d batches, broker matched %d against a first transmission; want ≥ %d",
			st.Resent, resent, killAt-ackedBeforeKill)
	}
	for b := uint64(1); b <= batches; b++ {
		if want := wire.AppendPBatch(nil, b, evs[(b-1)*per:b*per]); !bytes.Equal(seen[b], want) {
			t.Fatalf("batch %d on the wire diverges from its events:\n%s\n%s", b, seen[b], want)
		}
	}
}

// TestPublisherSteadyFlushAllocatesNoPayload: once a Publisher has a
// retired buffer to encode into, a flush of a full batch costs the
// ack's JSON decode (9 small objects, ~0.6 KB) and nothing the size of
// the ~5 KB payload — no fresh buffer, no append growth, no creeping
// window slice.
func TestPublisherSteadyFlushAllocatesNoPayload(t *testing.T) {
	leakCheck(t)
	evs := campaign.Burst(29, 100_000, 1)[:DefaultMaxBatch]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	brokerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			brokerDone <- err
			return
		}
		brokerDone <- ackingBroker(conn, 0, func(bseq uint64, _ []byte) (uint64, bool) { return bseq, false })
	}()
	pub, err := NewPublisher(ln.Addr().String(), "steady", 1, withPublishFlushEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// One full batch, then wait for its ack: exactly one batch is ever
	// in flight, so every flush after the first finds one free buffer.
	flush := func() {
		for _, ev := range evs {
			if err := pub.Publish(ev); err != nil {
				t.Fatal(err)
			}
		}
		for st := pub.Stats(); st.Acked < st.Batches; st = pub.Stats() {
			time.Sleep(10 * time.Microsecond) // not Gosched: AllocsPerRun runs on one P, which must go idle to poll the network
		}
	}
	for i := 0; i < 4; i++ {
		flush()
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, flush)
	runtime.ReadMemStats(&m1)
	bytesPerFlush := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up call
	t.Logf("steady flush: %.1f allocations, %.0f B (payload is %d B)",
		allocs, bytesPerFlush, len(wire.AppendPBatch(nil, 1, evs)))
	if allocs > 12 || bytesPerFlush > 2048 {
		t.Errorf("steady-state flush allocates %.1f objects / %.0f B; want ≤ 12 small objects and no payload-sized buffer",
			allocs, bytesPerFlush)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-brokerDone; err != nil {
		t.Fatalf("broker: %v", err)
	}
}

// partitionDrainers dials one partitioned subscriber per partition of
// K at addr and drains each on its own goroutine until the feed ends,
// publishing its cursor and its event count after every batch. wait
// blocks until both have stopped and reports the first receive error
// other than a clean end.
type partitionDrainers struct {
	applied []atomic.Uint64
	events  []atomic.Uint64
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
}

func drainPartitions(t *testing.T, srv *Server, K int) *partitionDrainers {
	t.Helper()
	d := &partitionDrainers{applied: make([]atomic.Uint64, K), events: make([]atomic.Uint64, K)}
	for p := 0; p < K; p++ {
		c, err := Dial(srv.Addr(), WithPartition(p, K))
		if err != nil {
			t.Fatalf("dial partition %d/%d: %v", p, K, err)
		}
		d.wg.Add(1)
		go func(p int, c *Client) {
			defer d.wg.Done()
			defer c.Close()
			for {
				batch, err := c.RecvBatch()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						d.errMu.Lock()
						d.err = err
						d.errMu.Unlock()
					}
					d.applied[p].Store(c.LastSeq())
					return
				}
				d.applied[p].Store(c.LastSeq()) // first: a count that is complete implies its cursor
				d.events[p].Add(uint64(len(batch)))
			}
		}(p, c)
	}
	waitClients(t, srv, K)
	return d
}

// behind returns the cursor of the slowest drainer.
func (d *partitionDrainers) behind() uint64 {
	m := d.applied[0].Load()
	for i := 1; i < len(d.applied); i++ {
		if a := d.applied[i].Load(); a < m {
			m = a
		}
	}
	return m
}

// waitOwed blocks until every drainer has received all the events of
// evs, the feed from sequence 1, that osn.PartitionDelivers owes its
// partition, and fails t at deadline. It counts events, not cursors: a
// partitioned session is sent no frame for a run of fewer than
// advanceEvery events its partition does not own, so a drainer's cursor
// can rest short of a head that owes it nothing more — until the feed
// ends, which a wait inside a live feed never sees.
func (d *partitionDrainers) waitOwed(t *testing.T, evs []osn.Event, deadline time.Time) {
	t.Helper()
	K := len(d.events)
	for p := 0; p < K; p++ {
		owed := uint64(0)
		for _, ev := range evs {
			if osn.PartitionDelivers(ev, p, K) {
				owed++
			}
		}
		for d.events[p].Load() < owed {
			if time.Now().After(deadline) {
				t.Fatalf("live path stuck: published %d, partition %d/%d received %d of its %d events (cursor %d)",
					len(evs), p, K, d.events[p].Load(), owed, d.applied[p].Load())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func (d *partitionDrainers) wait(t *testing.T) {
	t.Helper()
	d.wg.Wait()
	if d.err != nil {
		t.Fatalf("partition drainer: %v", d.err)
	}
}

// TestLivePathAllocBudget is the allocation gate sybilbench cannot be
// (it is not part of go test): publisher → spooled root → spooled relay
// → two partitioned RecvBatch drainers over loopback, no detector. One
// publish window of warm-up fills every scratch buffer and free list;
// over the next 64k events the whole process may allocate at most
// liveAllocBudget bytes per event. With every transient buffer reused
// and every retained payload sized exactly the path costs ~60 B/ev:
// the root's chunk and the relay's read buffer — about 2 × the 21-byte
// binary event with its size-class rounding. Partition views are
// spliced on writer scratch and never retained; K retained views would
// add ~48 B/ev, which the budget (~30 % headroom) does not admit, nor a
// drift back toward the 64-byte JSON event (~270 B/ev); from
// nil-started or over-sized buffers the JSON path cost ~950.
func TestLivePathAllocBudget(t *testing.T) {
	leakCheck(t)
	const (
		K               = 2
		warm            = DefaultPublishWindow * DefaultMaxBatch
		measured        = 256 * DefaultMaxBatch
		credit          = DefaultReplayBuffer / 2 // events in flight; keeps every session on the live path
		liveAllocBudget = 80.0
	)
	evs := campaign.Burst(31, 100_000, 1)[:warm+measured]
	root, relay, _, _, _ := spooledTree(t, DefaultReplayBuffer)
	drainers := drainPartitions(t, relay.Server(), K)
	pub, err := NewPublisher(root.Addr(), "budget", 1)
	if err != nil {
		t.Fatal(err)
	}
	// feed publishes evs[lo:hi] under the credit window and returns
	// once every drainer has applied them.
	feed := func(lo, hi int) {
		deadline := time.Now().Add(60 * time.Second)
		for i := lo; i < hi; i++ {
			for i%DefaultMaxBatch == 0 && uint64(i) > drainers.behind()+credit {
				if time.Now().After(deadline) {
					t.Fatalf("live path stuck: published %d, slowest drainer at %d", i, drainers.behind())
				}
				time.Sleep(50 * time.Microsecond)
			}
			if err := pub.Publish(evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
		drainers.waitOwed(t, evs[:hi], deadline)
	}
	feed(0, warm)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	feed(warm, warm+measured)
	runtime.ReadMemStats(&m1)
	perEv := float64(m1.TotalAlloc-m0.TotalAlloc) / measured
	t.Logf("live path allocates %.1f B/ev over %d events (budget %.0f)", perEv, measured, liveAllocBudget)
	if perEv > liveAllocBudget {
		t.Errorf("live path allocates %.1f B/ev, budget is %.0f", perEv, liveAllocBudget)
	}

	for _, s := range []*Server{root, relay.Server()} {
		for _, ss := range s.Stats().PerSession {
			if ss.CatchUp {
				t.Errorf("session %s fell to disk catch-up; the budget is for the live path", ss.ID)
			}
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
	drainers.wait(t)
}

// TestDrainersWaitForOwedEvents pins the completion wait of
// TestLivePathAllocBudget, which flaked with "published 16384, slowest
// drainer at 16383" while it waited on cursors. Two whole batches,
// then a flushed one-event frame that only partition 0 is owed: the
// relay sends partition 1 no frame for it, so partition 1's cursor
// stays one short for as long as the feed runs, and a wait on cursors
// would hit its deadline. A wait on the events owed returns at once.
func TestDrainersWaitForOwedEvents(t *testing.T) {
	leakCheck(t)
	const K = 2
	evs := append(campaign.Burst(43, 100_000, 1)[:2*DefaultMaxBatch],
		osn.Event{Type: osn.EvBlogPost, At: 1 << 20, Actor: actorIn(t, 0, K)})
	root, relay, _, _, _ := spooledTree(t, DefaultReplayBuffer)
	drainers := drainPartitions(t, relay.Server(), K)
	pub, err := NewPublisher(root.Addr(), "owed", 1, withPublishFlushEvery(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	drainers.waitOwed(t, evs, time.Now().Add(5*time.Second))
	if got, want := drainers.applied[1].Load(), uint64(2*DefaultMaxBatch); got != want {
		t.Errorf("partition 1/%d cursor at %d with the feed live, want %d: no frame for a foreign run shorter than advanceEvery", K, got, want)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Wait(); err != nil {
		t.Fatalf("relay did not end cleanly: %v", err)
	}
	drainers.wait(t)
	if got := drainers.behind(); got != uint64(len(evs)) {
		t.Errorf("slowest cursor ended at %d, want %d once the feed ended", got, len(evs))
	}
}

// TestEncodeAccounting pins ServerStats.Encodes on a clean K=2 run:
// the root encodes exactly one canonical chunk per pbatch, the relay
// encodes nothing but one fbatch view per (frame, partition) pair in
// which the partition owns an event. The second case is the source of
// sybilbench's "stray" stream.relay_encodes: a publisher flush that
// lands inside one of the harness's 256-event chunks (Flush here; the
// 2 ms flush interval there) adds a frame, and each extra frame costs
// the relay K more views than a count over aligned chunks expects —
// not a re-encode, a resume or a SuffixBatch. The third case replays a
// spooled server's history to K partitioned subscribers from sequence
// 1: each session encodes one view per spooled frame its partition owns
// an event in.
func TestEncodeAccounting(t *testing.T) {
	const K, total = 2, 20*DefaultMaxBatch + 200
	evs := campaign.Burst(37, 100_000, 1)[:total]
	// views counts the (frame, partition) pairs with an owned event when
	// evs travel in frames ending at the given offsets.
	views := func(ends []int) (n uint64) {
		lo := 0
		for _, hi := range ends {
			for p := 0; p < K; p++ {
				if len(wantSeqs(evs[lo:hi], p, K)) > 0 {
					n++
				}
			}
			lo = hi
		}
		return n
	}
	// frameEnds models the publisher: a pbatch ends when it is full,
	// when Flush is called after flushAt events, and at the end.
	frameEnds := func(flushAt int) (ends []int) {
		last := 0
		for i := 1; i <= total; i++ {
			if i-last == DefaultMaxBatch || i == flushAt || i == total {
				ends = append(ends, i)
				last = i
			}
		}
		return ends
	}
	const early = 5*DefaultMaxBatch + 100 // a flush 100 events into the sixth chunk
	aligned, shifted := frameEnds(0), frameEnds(early)
	if views(shifted) != views(aligned)+K {
		t.Fatalf("test feed: one extra frame should cost K=%d views, got %d → %d", K, views(aligned), views(shifted))
	}

	for _, tc := range []struct {
		name    string
		flushAt int
		ends    []int
	}{
		{"aligned", -1, aligned},
		{"early-flush", early, shifted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			root, relay, _, _, _ := spooledTree(t, DefaultReplayBuffer)
			drainers := drainPartitions(t, relay.Server(), K)
			pub, err := NewPublisher(root.Addr(), "acct", 1, withPublishFlushEvery(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range evs {
				if i == tc.flushAt {
					if err := pub.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if err := pub.Publish(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := pub.Close(); err != nil {
				t.Fatal(err)
			}
			if err := root.Close(); err != nil {
				t.Fatal(err)
			}
			if err := relay.Wait(); err != nil {
				t.Fatalf("relay did not end cleanly: %v", err)
			}
			drainers.wait(t)
			for p := 0; p < K; p++ {
				if got, want := drainers.events[p].Load(), uint64(len(wantSeqs(evs, p, K))); got != want {
					t.Fatalf("partition %d/%d received %d events, contract says %d", p, K, got, want)
				}
			}
			frames := uint64(len(tc.ends))
			if got := root.Stats().Encodes; got != frames {
				t.Errorf("root Encodes = %d, want one per canonical chunk = %d", got, frames)
			}
			if got := relay.Stats().Frames; got != frames {
				t.Errorf("relay adopted %d frames, want the root's %d chunks verbatim", got, frames)
			}
			if got, want := relay.Server().Stats().Encodes, views(tc.ends); got != want {
				t.Errorf("relay Encodes = %d, want one per non-empty filtered chunk = %d", got, want)
			}
		})
	}

	// A late subscriber builds the same views per session, from frames
	// fan-out built no view of for it (here the tail's: it holds the
	// whole feed), and counts them the same way.
	t.Run("catch-up", func(t *testing.T) {
		leakCheck(t)
		srv, _ := spooledServer(t, DefaultReplayBuffer)
		for off := 0; off < total; off += DefaultMaxBatch {
			srv.BroadcastBatch(evs[off:min(off+DefaultMaxBatch, total)])
		}
		before := srv.Stats().Encodes
		for p := 0; p < K; p++ {
			c, err := DialFrom(srv.Addr(), 1, WithPartition(p, K))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for c.LastSeq() < total {
				batch, err := c.RecvBatch()
				if err != nil {
					t.Fatalf("partition %d/%d: %v", p, K, err)
				}
				n += len(batch)
			}
			c.Close()
			if want := len(wantSeqs(evs, p, K)); n != want {
				t.Fatalf("partition %d/%d received %d events, contract says %d", p, K, n, want)
			}
		}
		if got, want := srv.Stats().Encodes-before, views(aligned); got != want {
			t.Errorf("catch-up Encodes = %d, want one per non-empty filtered spool frame = %d", got, want)
		}
	})
}

// TestAdoptUndecodableFrameIsRefused: AdoptFrame checks every record
// of a frame before it sequences anything. A frame that does not
// decode — an event type this build does not know, a v2 JSON batch
// (even the canonical "aux":0-free form), a record cut short — is
// refused with ErrBadFrame and leaves the head where it was, so the
// next good frame still lines up. No event is made up in its place
// and no partitioned subscriber's cursor moves past what it was not
// given.
func TestAdoptUndecodableFrameIsRefused(t *testing.T) {
	leakCheck(t)
	const K = 2
	srv, err := NewServer("127.0.0.1:0", withAdopting())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	drainers := drainPartitions(t, srv, K)

	good := partEvents(16, 41)
	first := wire.AppendBatch(nil, 1, good[:8])
	for _, bad := range [][]byte{
		wire.AppendBatch(nil, 9, []osn.Event{good[8], {Type: osn.EvFriendship + 1, At: 2}}),
		[]byte(`{"t":"batch","seq":9,"events":[{"type":"ban","at":1,"actor":0,"target":0,"aux":0}]}`),
		first[:len(first)-1],
	} {
		if n, err := srv.AdoptFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("adopt of %q: n=%d err=%v, want ErrBadFrame", bad, n, err)
		}
	}
	if got := srv.HeadSeq(); got != 0 {
		t.Fatalf("head = %d after refused frames, want 0", got)
	}
	for _, payload := range [][]byte{first, wire.AppendBatch(nil, 9, good[8:])} {
		if _, err := srv.AdoptFrame(payload); err != nil {
			t.Fatalf("adopt: %v", err)
		}
	}
	if got := srv.HeadSeq(); got != 16 {
		t.Fatalf("head = %d, want 16", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	drainers.wait(t)
	for p := 0; p < K; p++ {
		if got, want := drainers.events[p].Load(), uint64(len(wantSeqs(good, p, K))); got != want {
			t.Errorf("partition %d/%d received %d events, want %d", p, K, got, want)
		}
		if got := drainers.applied[p].Load(); got != 16 {
			t.Errorf("partition %d/%d cursor ended at %d, want 16", p, K, got)
		}
	}
}
