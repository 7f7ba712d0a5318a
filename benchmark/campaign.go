package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

const (
	// inflightCap is the credit window of the closed-loop workloads:
	// the generator never has more events handed off than this beyond
	// what the slowest consumer has applied. Half the broker's replay
	// window, so no session can overflow its window and be demoted to
	// disk catch-up — the live path stays the live path.
	inflightCap = stream.DefaultReplayBuffer / 2

	// pacedRate is the open-loop rate of campaign-paced, about 40% of
	// the measured closed-loop capacity.
	pacedRate = 300_000.0

	pollEvery  = 50 * time.Microsecond // credit and completion polling
	liveEvery  = 64                    // chunks between live-path checks
	repTimeout = 40 * time.Second      // one repetition without reaching the head
	loopback   = "127.0.0.1:0"
)

// Stages of the campaign topology. Each adds exactly one layer to the
// one before, which is what lets the stage ledger difference them.
const (
	stageGenerate = iota // S0: the generator loop into a sink
	stagePublish         // S1: Publisher -> root broker
	stageSpool           // S2: + root spool
	stageRelay           // S3: + spooled relay hop
	stageRecv            // S4: + K partitioned RecvBatch drains
	stageIngest          // S5: + Pipeline.Ingest — the campaign workloads
)

// harness is what every repetition shares: the feed and its oracle,
// the scratch directory, and the clock all timestamps are read off.
type harness struct {
	feed  *feed
	rule  detector.Rule
	dir   string // scratch directory for spools
	epoch time.Time
}

func (h *harness) now() int64 { return int64(time.Since(h.epoch)) }

// rep is the outcome of one repetition.
type rep struct {
	wallNs     int64
	cpuNs      int64
	allocBytes uint64

	lagsMs []float64 // flag lag of every expected flag that fired
	lateMs []float64 // paced only: how late each chunk was handed off

	attempted int // events owed to workers + expected flags
	failed    int // see check
	notes     []string

	maxInflight int // most events in flight at any hand-off (closed loop)

	received     [workers]int
	rootEncodes  uint64
	relayEncodes uint64
	relayFrames  uint64
	catchup      int // sessions seen serving from the disk spool
	evicted      uint64
	resent       uint64
	segments     int
}

func (r *rep) fail(n int, format string, args ...any) {
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// flagRec is one flag-hook firing.
type flagRec struct {
	id osn.AccountID
	at int64
}

// worker is one detection-cluster member: a partitioned subscription
// feeding a partition-gated one-shard pipeline.
type worker struct {
	part   int
	client *stream.Client
	pipe   *detector.Pipeline // nil below stageIngest

	applied atomic.Uint64 // feed cursor once Ingest has returned
	done    atomic.Bool   // reached the head and drained its pipeline

	// Written by the worker's goroutines, read once done is set.
	received int
	flags    []flagRec
	err      error
}

func (h *harness) newPipeline(w *worker) *detector.Pipeline {
	return detector.NewPipeline(h.rule, nil,
		detector.WithGraphReconstruction(),
		detector.WithPartition(w.part, workers),
		detector.WithShards(1),
		detector.WithFlagHook(func(f detector.Flag) {
			w.flags = append(w.flags, flagRec{f.ID, h.now()})
		}))
}

// drain is a worker's receive loop: RecvBatch, Ingest, publish the
// cursor; at the head it closes the pipeline, which drains the shard
// and the merge stage, so done means every owed event is applied and
// every flag has fired. It then keeps reading until the feed ends.
func (h *harness) drain(w *worker, head uint64, tr *tracer) {
	// Hanging up as soon as the feed ends is what lets the serving
	// broker's Close return at once instead of after its drain timeout.
	defer w.client.Close()
	for {
		t0 := h.now()
		evs, err := w.client.RecvBatch()
		if err != nil {
			if !w.done.Load() {
				w.err = fmt.Errorf("worker %d stopped at seq %d of %d: %w", w.part, w.client.LastSeq(), head, err)
				w.done.Store(true)
			}
			return
		}
		t1 := h.now()
		last := w.client.LastSeq()
		w.received += len(evs)
		if w.done.Load() {
			if len(evs) > 0 {
				w.err = fmt.Errorf("worker %d was sent %d events past the head", w.part, len(evs))
			}
			continue
		}
		var id uint64
		if tr != nil && len(evs) > 0 {
			id = chunkID(last)
			if seqs := w.client.LastBatchSeqs(); seqs != nil {
				id = chunkID(seqs[0])
			}
			tr.add(recvLane(w.part), spanRecv, w.part, id, t0, t1)
		}
		if w.pipe != nil {
			w.pipe.Ingest(detector.Batch{Events: evs, LastSeq: last})
			if tr != nil && len(evs) > 0 {
				tr.add(recvLane(w.part), spanIngest, w.part, id, t1, h.now())
			}
		}
		w.applied.Store(last)
		if last >= head {
			if w.pipe != nil {
				w.pipe.Close()
			}
			w.done.Store(true)
		}
	}
}

// topology is one repetition's servers, spools and workers.
type topology struct {
	rootSpool, relaySpool *spool.Spool
	root                  *stream.Server
	relay                 *stream.Relay
	pub                   *stream.Publisher
	ws                    []*worker
	wg                    sync.WaitGroup
}

// build brings the topology up to the given stage and waits until
// every link is connected, so no session starts behind the feed.
func (h *harness) build(t *topology, stage int, dir string, tr *tracer) error {
	var rootOpts []stream.ServerOption
	var err error
	if stage >= stageSpool {
		if t.rootSpool, err = spool.Open(filepath.Join(dir, "root")); err != nil {
			return err
		}
		rootOpts = append(rootOpts, stream.WithSpool(t.rootSpool))
	}
	if t.root, err = stream.NewServer(loopback, rootOpts...); err != nil {
		return err
	}
	edge := t.root.Addr()
	if stage >= stageRelay {
		// The relay is spooled: a spool-less relay serving partitioned
		// sessions was seen to drop events under lag (see README).
		if t.relaySpool, err = spool.Open(filepath.Join(dir, "relay")); err != nil {
			return err
		}
		t.relay, err = stream.NewRelay(loopback, t.root.Addr(),
			stream.WithRelayServer(stream.WithSpool(t.relaySpool)))
		if err != nil {
			return err
		}
		edge = t.relay.Addr()
		if err := waitFor(func() bool { return t.root.NumClients() == 1 }); err != nil {
			return fmt.Errorf("relay never subscribed upstream: %w", err)
		}
	}
	if stage >= stageRecv {
		head := uint64(len(h.feed.events))
		for part := 0; part < workers; part++ {
			w := &worker{part: part}
			if w.client, err = stream.Dial(edge, stream.WithPartition(part, workers)); err != nil {
				return err
			}
			if stage >= stageIngest {
				w.pipe = h.newPipeline(w)
			}
			t.ws = append(t.ws, w)
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				h.drain(w, head, tr)
			}()
		}
	}
	t.pub, err = stream.NewPublisher(t.root.Addr(), "loadgen", 1)
	return err
}

// teardown ends the feed from the top so eof drains down the tree and
// every receive loop returns on its own; after a failed repetition it
// severs instead, since a drain could then wait on a dead peer.
func (t *topology) teardown(clean bool) {
	if t.pub != nil {
		if clean {
			t.pub.Close()
		} else {
			t.pub.Abort()
		}
	}
	if t.root != nil {
		if clean {
			t.root.Close()
		} else {
			t.root.Abort()
		}
	}
	if t.relay != nil {
		if clean {
			t.relay.Wait()
			t.relay.Close()
		} else {
			t.relay.Abort()
		}
	}
	for _, w := range t.ws {
		if !clean {
			w.client.Kick()
		}
	}
	t.wg.Wait()
	for _, w := range t.ws {
		if w.pipe != nil {
			w.pipe.Close()
		}
	}
	for _, sp := range []*spool.Spool{t.relaySpool, t.rootSpool} {
		if sp != nil {
			sp.Close()
		}
	}
}

// waitFor polls cond until it holds, up to five seconds.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// minApplied is the cursor of the slowest worker.
func minApplied(ws []*worker) uint64 {
	m := ws[0].applied.Load()
	for _, w := range ws[1:] {
		if a := w.applied.Load(); a < m {
			m = a
		}
	}
	return m
}

// catchupSessions lists the sessions of srv now serving from disk.
func catchupSessions(srv *stream.Server, into map[string]bool) {
	for _, s := range srv.Stats().PerSession {
		if s.CatchUp {
			into[s.ID] = true
		}
	}
}

// measure brackets fn with the wall clock, getrusage and the
// allocator's running total. It collects garbage first, so every
// repetition starts from the same heap.
func (r *rep) measure(fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuNs(), time.Now()
	fn()
	r.wallNs = int64(time.Since(t0))
	r.cpuNs = cpuNs() - c0
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
}

// generateSink keeps stage S0's loop over the events from being
// optimised away.
var generateSink int64

// campaign runs the feed once through the topology of the given stage
// and returns what it measured. rate 0 is the closed loop under the
// credit window; a positive rate is an open loop that hands each chunk
// off when its last event is due, however far behind the consumers
// are. tr, when set, records spans.
func (h *harness) campaign(stage int, rate float64, tr *tracer) (r rep) {
	f := h.feed
	goroutines := runtime.NumGoroutine()
	dir, err := os.MkdirTemp(h.dir, "rep-")
	if err != nil {
		r.fail(1, "scratch dir: %v", err)
		return r
	}
	defer os.RemoveAll(dir)

	var t topology
	if stage > stageGenerate {
		if err := h.build(&t, stage, dir, tr); err != nil {
			t.teardown(false)
			r.fail(1, "build: %v", err)
			return r
		}
	}

	// progress is how far the last layer of this stage has got, in
	// feed events; the credit window and the finish line both read it.
	var progress func() uint64
	switch {
	case stage == stageGenerate:
		progress = func() uint64 { return uint64(len(f.events)) }
	case stage <= stageSpool:
		progress = func() uint64 {
			acked := t.pub.Stats().Acked * chunkSize
			if acked > uint64(len(f.events)) {
				acked = uint64(len(f.events))
			}
			return acked
		}
	case stage == stageRelay:
		progress = func() uint64 { return t.relay.Stats().Seq }
	default:
		progress = func() uint64 { return minApplied(t.ws) }
	}
	finished := func() bool {
		if stage >= stageRecv {
			for _, w := range t.ws {
				if !w.done.Load() {
					return false
				}
			}
			return true
		}
		return progress() >= uint64(len(f.events))
	}

	handoff := make([]int64, f.chunks()) // when each chunk entered the first layer
	catchup := make(map[string]bool)
	var runErr error
	var start int64
	r.measure(func() {
		start = h.now()
		handed := 0
		for c := 0; c < f.chunks() && runErr == nil; c++ {
			evs := f.chunk(c)
			t0 := h.now()
			if rate > 0 {
				due := start + int64(float64(handed+len(evs)-1)/rate*1e9)
				if d := due - t0; d > 0 {
					time.Sleep(time.Duration(d))
				}
				handoff[c] = h.now()
				r.lateMs = append(r.lateMs, float64(handoff[c]-due)/1e6)
			} else {
				waited := false
				for {
					inflight := handed + len(evs) - int(progress())
					if inflight <= inflightCap {
						if inflight > r.maxInflight {
							r.maxInflight = inflight
						}
						break
					}
					if h.now()-t0 > int64(repTimeout) {
						runErr = fmt.Errorf("credit window stuck at chunk %d", c)
						break
					}
					waited = true
					time.Sleep(pollEvery)
				}
				handoff[c] = h.now()
				if waited {
					tr.add(genLane, spanCreditWait, -1, uint64(handed)+1, t0, handoff[c])
				}
			}
			if stage == stageGenerate {
				for _, ev := range evs {
					generateSink += int64(ev.Actor) ^ int64(ev.Target)
				}
			} else {
				for _, ev := range evs {
					if err := t.pub.Publish(ev); err != nil {
						runErr = fmt.Errorf("publish: %w", err)
						break
					}
				}
			}
			tr.add(genLane, spanPublish, -1, uint64(handed)+1, handoff[c], h.now())
			handed += len(evs)
			if stage >= stageRelay && c%liveEvery == 0 {
				catchupSessions(t.root, catchup)
				catchupSessions(t.relay.Server(), catchup)
			}
		}
		if stage > stageGenerate && runErr == nil {
			runErr = t.pub.Flush()
		}
		for runErr == nil && !finished() {
			if h.now()-start > int64(repTimeout)+int64(float64(len(f.events))/pacedRate*1e9) {
				runErr = fmt.Errorf("feed stuck at %d of %d", progress(), len(f.events))
				break
			}
			time.Sleep(pollEvery)
		}
	})

	// Everything below is outside the clock: stats, teardown, checks.
	if stage >= stageRelay {
		catchupSessions(t.root, catchup)
		catchupSessions(t.relay.Server(), catchup)
		rs := t.relay.Server().Stats()
		r.relayEncodes, r.relayFrames = rs.Encodes, t.relay.Stats().Frames
		r.evicted += rs.Evicted
	}
	r.catchup = len(catchup)
	if stage > stageGenerate {
		s := t.root.Stats()
		r.rootEncodes = s.Encodes
		r.evicted += s.Evicted
		r.resent = t.pub.Stats().Resent
	}
	if t.rootSpool != nil {
		r.segments = t.rootSpool.Stats().Segments
	}
	t.teardown(runErr == nil)
	if runErr != nil {
		r.fail(1, "run: %v", runErr)
	}
	if r.catchup > 0 {
		// Not a wrong output — every event still arrives exactly once —
		// but the repetition timed a mix of two delivery paths.
		fmt.Fprintf(os.Stderr, "sybilbench: warning: %d session(s) left the live ring for disk catch-up\n", r.catchup)
	}
	if stage == stageIngest {
		h.check(&r, t.ws, tr, func(trigger int32, _ *worker) int64 {
			if rate > 0 {
				return start + int64(float64(trigger)/rate*1e9)
			}
			return handoff[int(trigger)/chunkSize]
		})
	} else if stage == stageRecv {
		h.check(&r, t.ws, tr, nil)
	}
	h.checkLeak(&r, goroutines)
	return r
}

// check is the correctness gate of one repetition: every worker
// applied exactly the events osn.PartitionDelivers owes it, the union
// of the workers' flags is the oracle's set, nothing was evicted and
// no worker failed. due, when set, maps a flag's trigger event to the
// instant that event was due to enter the workload's first layer; the
// distance from there to the flag hook is the flag lag.
func (h *harness) check(r *rep, ws []*worker, tr *tracer, due func(trigger int32, w *worker) int64) {
	f := h.feed
	for _, w := range ws {
		r.attempted += f.owed[w.part]
		r.received[w.part] = w.received
		if w.err != nil {
			r.fail(1, "%v", w.err)
		}
		if d := f.owed[w.part] - w.received; d != 0 {
			if d < 0 {
				d = -d
			}
			r.fail(d, "worker %d applied %d events, owed %d", w.part, w.received, f.owed[w.part])
		}
	}
	if r.evicted > 0 {
		r.fail(1, "%d session(s) evicted", r.evicted)
	}
	if due == nil {
		return
	}
	r.attempted += f.expected
	seen := make(map[osn.AccountID]bool)
	for _, w := range ws {
		for _, fl := range w.flags {
			trigger := f.trigger[fl.id]
			if trigger < 0 || seen[fl.id] || osn.Partition(fl.id, workers) != w.part {
				r.fail(1, "worker %d flagged account %d: not expected, not its own, or flagged twice", w.part, fl.id)
				continue
			}
			seen[fl.id] = true
			r.lagsMs = append(r.lagsMs, float64(fl.at-due(trigger, w))/1e6)
			tr.add(flagLane(w.part), spanFlag, w.part, chunkID(uint64(trigger)+1), fl.at, fl.at)
		}
	}
	if missing := f.expected - len(seen); missing > 0 {
		r.fail(missing, "%d of %d expected flags never fired", missing, f.expected)
	}
}

// checkLeak waits for the goroutine count to come back to what it was
// before the repetition built anything.
func (h *harness) checkLeak(r *rep, before int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			r.fail(1, "%d goroutines leaked", runtime.NumGoroutine()-before)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// replay is one catchup-replay repetition: a server opened on the
// prefilled spool, K workers dialling from sequence 1 and draining to
// the head, all of it served from disk.
func (h *harness) replay(spoolDir string, tr *tracer) (r rep) {
	f := h.feed
	goroutines := runtime.NumGoroutine()
	head := uint64(len(f.events))
	sp, err := spool.Open(spoolDir)
	if err != nil {
		r.fail(1, "open spool: %v", err)
		return r
	}
	defer sp.Close()
	srv, err := stream.NewServer(loopback, stream.WithSpool(sp))
	if err != nil {
		r.fail(1, "server: %v", err)
		return r
	}
	if srv.HeadSeq() != head {
		r.fail(1, "prefilled spool ends at %d, feed has %d events", srv.HeadSeq(), head)
		srv.Close()
		return r
	}

	ws := make([]*worker, workers)
	for part := range ws {
		ws[part] = &worker{part: part}
		ws[part].pipe = h.newPipeline(ws[part])
	}
	var wg sync.WaitGroup
	catchup := make(map[string]bool)
	var start int64
	r.measure(func() {
		start = h.now()
		for _, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				w.client, err = stream.DialFrom(srv.Addr(), 1, stream.WithPartition(w.part, workers))
				if err != nil {
					w.err = err
					w.done.Store(true)
					return
				}
				h.drain(w, head, tr)
			}()
		}
		for i := 0; ; i++ {
			all := true
			for _, w := range ws {
				all = all && w.done.Load()
			}
			if all {
				break
			}
			if i%256 == 0 {
				catchupSessions(srv, catchup)
			}
			if h.now()-start > int64(repTimeout) {
				r.fail(1, "replay stuck at %d of %d", minApplied(ws), head)
				break
			}
			time.Sleep(pollEvery)
		}
	})
	s := srv.Stats()
	r.rootEncodes, r.evicted, r.catchup = s.Encodes, s.Evicted, len(catchup)
	r.segments = sp.Stats().Segments
	srv.Close()
	wg.Wait()
	for _, w := range ws {
		w.pipe.Close()
	}
	h.check(&r, ws, tr, func(int32, *worker) int64 { return start })
	h.checkLeak(&r, goroutines)
	return r
}

// prefill writes the whole feed into a fresh spool through
// BroadcastBatch on a subscriber-less broker, the way a root that ran
// the campaign earlier would have left it.
func (h *harness) prefill(dir string) error {
	sp, err := spool.Open(dir)
	if err != nil {
		return err
	}
	srv, err := stream.NewServer(loopback, stream.WithSpool(sp))
	if err != nil {
		sp.Close()
		return err
	}
	for c := 0; c < h.feed.chunks(); c++ {
		srv.BroadcastBatch(h.feed.chunk(c))
	}
	spoolErr := srv.Stats().SpoolErr
	srv.Close()
	if err := sp.Close(); err != nil {
		return err
	}
	if spoolErr != "" {
		return errors.New(spoolErr)
	}
	return nil
}

// direct is one detector-direct repetition: no sockets, K goroutines
// each feeding its osn.PartitionDelivers slice, in chunkSize chunks,
// straight into its partition-gated pipeline.
func (h *harness) direct(evs [workers][]osn.Event, idx [workers][]int32, tr *tracer) (r rep) {
	goroutines := runtime.NumGoroutine()
	ws := make([]*worker, workers)
	handoff := make([][]int64, workers)
	for part := range ws {
		ws[part] = &worker{part: part}
		ws[part].pipe = h.newPipeline(ws[part])
		handoff[part] = make([]int64, (len(evs[part])+chunkSize-1)/chunkSize)
	}
	r.measure(func() {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine, seqs := evs[w.part], idx[w.part]
				for lo := 0; lo < len(mine); lo += chunkSize {
					hi := lo + chunkSize
					if hi > len(mine) {
						hi = len(mine)
					}
					t0 := h.now()
					handoff[w.part][lo/chunkSize] = t0
					w.pipe.Ingest(detector.Batch{Events: mine[lo:hi]})
					w.received += hi - lo
					tr.add(recvLane(w.part), spanIngest, w.part, chunkID(uint64(seqs[lo])+1), t0, h.now())
				}
				w.pipe.Close()
				w.done.Store(true)
			}()
		}
		wg.Wait()
	})
	h.check(&r, ws, tr, func(trigger int32, w *worker) int64 {
		seqs := idx[w.part]
		pos := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= trigger })
		return handoff[w.part][pos/chunkSize]
	})
	h.checkLeak(&r, goroutines)
	return r
}
