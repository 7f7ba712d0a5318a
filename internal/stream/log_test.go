package stream

// Unit tests of the feed log (log.go): the resume rule, retention,
// drop vs pin, adoption claims and close. They drive the log directly —
// no listener, no socket — with an io.Closer double for a reader's
// connection, and they fill rounds without waiting: an empty round
// means the log has nothing more for the reader now.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// closer is a reader's connection as the log sees it.
type closer struct{ closed bool }

func (c *closer) Close() error { c.closed = true; return nil }

// spooledLog builds a log over a fresh spool in a test temp dir.
func spooledLog(t *testing.T, sopts []spool.Option, opts ...ServerOption) (*feedLog, *spool.Spool) {
	t.Helper()
	sp, err := spool.Open(t.TempDir(), sopts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return newFeedLog(append(opts, WithSpool(sp))...), sp
}

// put reserves and publishes one batch of n events as one chunk;
// sequence s carries testEvent(s-1), as BroadcastBatch would number
// them. It returns the batch's last sequence.
func put(t *testing.T, l *feedLog, n int) uint64 {
	t.Helper()
	first, err := l.reserve(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	publishAt(l, first, n)
	return first + uint64(n) - 1
}

// publishAt publishes the n reserved events from first.
func publishAt(l *feedLog, first uint64, n int) {
	evs := make([]osn.Event, n)
	for i := range evs {
		evs[i] = testEvent(int(first) + i - 1)
	}
	last := first + uint64(n) - 1
	l.publish([]*chunk{{first: first, last: last, n: n, cursor: last, payload: wire.AppendBatch(nil, first, evs)}})
}

// tryOpen opens reader id at resume (0 = fresh) on a connection double.
func tryOpen(l *feedLog, id string, resume uint64) (*reader, *fill, string) {
	r, gen, _, reject := l.open(&reader{id: id}, resume, &closer{})
	if reject != nil {
		return nil, nil, reject.Err
	}
	return r, &fill{r: r, gen: gen}, ""
}

// mustOpen is tryOpen for a resume the test expects served.
func mustOpen(t *testing.T, l *feedLog, id string, resume uint64) (*reader, *fill) {
	t.Helper()
	r, f, reject := tryOpen(l, id, resume)
	if reject != "" {
		t.Fatalf("open %s at %d refused: %s", id, resume, reject)
	}
	return r, f
}

// drain fills rounds until the log has nothing more for f's reader,
// checking that every round's jobs cover it without a gap and carry
// the events published at their sequences. It returns the first
// sequence framed (0 if none), the reader's cursor, and whether eof
// ended the subscription.
func drain(t *testing.T, f *fill) (from, to uint64, eof bool) {
	t.Helper()
	for {
		rd, err := f.next(false)
		if err != nil {
			t.Fatal(err)
		}
		if rd.to < rd.from && !rd.eof {
			return from, f.r.sent, false
		}
		want := rd.from
		for _, c := range f.jobs {
			if c.first > want || c.last < want {
				t.Fatalf("round from %d: job %d..%d does not continue at %d", rd.from, c.first, c.last, want)
			}
			seq, evs, ok := wire.ParseBatch(c.payload, nil)
			if !ok || seq != c.first || len(evs) != c.n || evs[0].At != int64(seq)-1 {
				t.Fatalf("job %d..%d carries seq %d, %d events (ok %v)", c.first, c.last, seq, len(evs), ok)
			}
			want = c.last + 1
		}
		if len(f.jobs) > 0 && want != rd.to+1 {
			t.Fatalf("round %d..%d: jobs end at %d", rd.from, rd.to, want-1)
		}
		if from == 0 && rd.to >= rd.from {
			from = rd.from
		}
		if rd.eof {
			return from, rd.to, true
		}
	}
}

// TestLogResumeRule drives every outcome of the one resume rule: a
// resume at r is served iff r lies in [tail first, head+1] or the
// spool holds r, whether or not the log still knows the reader.
func TestLogResumeRule(t *testing.T) {
	l := newFeedLog(WithReplayBuffer(16), withSessionLinger(time.Nanosecond))
	gone, _ := mustOpen(t, l, "gone", 0)
	gone.detach(gone.gen) // its linger expires at the next publish
	for i := 0; i < 40; i++ {
		put(t, l, 1)
	}
	if !gone.gone || l.evicted.Load() != 0 {
		t.Fatalf("linger-expired reader: gone=%v evicted=%d, want swept with no loss", gone.gone, l.evicted.Load())
	}
	if first := l.first(); first != 25 {
		t.Fatalf("tail starts at %d, want 25", first)
	}
	known, _ := mustOpen(t, l, "known", 0)
	if known.sent != 40 {
		t.Fatalf("fresh reader starts after %d, want after the head 40", known.sent)
	}

	for _, tc := range []struct {
		name, id string
		resume   uint64
		reject   string // "" = served
	}{
		{"tail first, unknown id", "fresh", 25, ""},
		{"inside the tail, linger-expired id", "gone", 30, ""},
		{"head+1", "athead", 41, ""},
		{"ahead of the feed", "ahead", 42, "ahead of feed"},
		{"below the tail, unknown id", "nosuch", 24, "unknown session"},
		{"below the tail, known id", "known", 10, "already trimmed"},
	} {
		_, f, reject := tryOpen(l, tc.id, tc.resume)
		if tc.reject != "" {
			if !strings.Contains(reject, tc.reject) {
				t.Errorf("%s: resume at %d: reject %q, want %q", tc.name, tc.resume, reject, tc.reject)
			}
			continue
		}
		if reject != "" {
			t.Errorf("%s: resume at %d refused: %s", tc.name, tc.resume, reject)
			continue
		}
		from, to, _ := drain(t, f)
		if to != 40 || (tc.resume <= 40 && from != tc.resume) {
			t.Errorf("%s: resume at %d framed %d..%d, want %d..40", tc.name, tc.resume, from, to, tc.resume)
		}
	}
	if _, _, _, reject := l.open(&reader{id: "known", part: 1, parts: 2}, 41, &closer{}); reject == nil || !strings.Contains(reject.Err, "partition mismatch") {
		t.Errorf("resume on another partition: reject %+v", reject)
	}
}

// TestLogResumeFromSpool: past the tail, the spool serves a resume
// while it retains r and refuses it below its retention floor.
func TestLogResumeFromSpool(t *testing.T) {
	segs := []spool.Option{spool.WithSegmentBytes(512), spool.WithRetainBytes(1024)}
	l, sp := spooledLog(t, segs, WithReplayBuffer(8))
	cold, _ := mustOpen(t, l, "cold", 0)
	for i := 0; i < 200; i++ {
		put(t, l, 1)
	}
	if sp.First() != 1 {
		t.Fatalf("spool pruned to %d under a reader at 0", sp.First())
	}
	late, f := mustOpen(t, l, "late", 1)
	if from, to, _ := drain(t, f); from != 1 || to != 200 {
		t.Fatalf("resume at 1 from the spool framed %d..%d, want 1..200", from, to)
	}
	cold.evict()
	late.evict()
	for i := 0; i < 200; i++ {
		put(t, l, 1)
	}
	if sp.First() <= 1 {
		t.Fatal("test premise broken: retention never pruned")
	}
	if _, _, reject := tryOpen(l, "cold", 1); !strings.Contains(reject, "retention floor") {
		t.Fatalf("resume below the spool's retention: reject %q", reject)
	}
}

// TestLogResumeInsideReservedRange: a resume can reach the log after a
// batch's reservation and before its publication — on a spooled log
// that is before the spool holds anything. The reserved range counts as
// inside the tail, so the resume is served and its rounds wait for the
// batch.
func TestLogResumeInsideReservedRange(t *testing.T) {
	l, _ := spooledLog(t, nil, WithReplayBuffer(64))
	first, err := l.reserve(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, f := mustOpen(t, l, "early", 1)
	if _, to, _ := drain(t, f); to != 0 {
		t.Fatalf("framed through %d before the batch was published", to)
	}
	publishAt(l, first, 10)
	if from, to, _ := drain(t, f); from != 1 || to != 10 {
		t.Fatalf("framed %d..%d, want 1..10", from, to)
	}
}

// TestLogPruneFollowsMinAck: spool retention never passes the lowest
// acknowledged sequence across readers.
func TestLogPruneFollowsMinAck(t *testing.T) {
	segs := []spool.Option{spool.WithSegmentBytes(512), spool.WithRetainBytes(1024)}
	l, sp := spooledLog(t, segs, WithReplayBuffer(8))
	slow, f := mustOpen(t, l, "slow", 0)
	fast, ff := mustOpen(t, l, "fast", 0)
	for i := 0; i < 300; i++ {
		put(t, l, 1)
	}
	drain(t, f)
	drain(t, ff)
	fast.ack(300)
	if sp.First() != 1 {
		t.Fatalf("spool pruned to %d while a reader has acked nothing", sp.First())
	}
	slow.ack(150)
	for i := 0; i < 300; i++ {
		put(t, l, 1)
	}
	if first := sp.First(); first <= 1 || first > 151 {
		t.Fatalf("spool retains from %d, want pruned up to the min ack 150 and no further", first)
	}
}

// TestLogSpooledNeverWaits: with a usable spool every chunk is on disk,
// so the tail drops freely — a reader that never acks holds nobody up
// and is not evicted, connected or detached.
func TestLogSpooledNeverWaits(t *testing.T) {
	l, _ := spooledLog(t, nil, WithReplayBuffer(8), withStallTimeout(100*time.Millisecond))
	slow, f := mustOpen(t, l, "slow", 0)
	away, _ := mustOpen(t, l, "away", 0)
	away.detach(away.gen)
	for i := 0; i < 100; i++ {
		put(t, l, 1)
	}
	if slow.gone || away.gone || l.evicted.Load() != 0 {
		t.Fatalf("spooled log evicted: slow=%v away=%v evicted=%d", slow.gone, away.gone, l.evicted.Load())
	}
	if held := l.head + 1 - l.first(); held > 8 {
		t.Fatalf("tail holds %d events, want at most 8", held)
	}
	if from, to, _ := drain(t, f); from != 1 || to != 100 {
		t.Fatalf("never-acking reader framed %d..%d from the spool, want 1..100", from, to)
	}
}

// TestLogSpoollessPins: without a spool a chunk some reader owes stays.
// The furthest-behind connected reader pins it, holding the producer
// until it acks; a detached one owing it is evicted, its loss counted.
func TestLogSpoollessPins(t *testing.T) {
	l := newFeedLog(WithReplayBuffer(4), withStallTimeout(time.Minute))
	ahead, fa := mustOpen(t, l, "ahead", 0)
	behind, fb := mustOpen(t, l, "behind", 0)
	away, _ := mustOpen(t, l, "away", 0)
	away.detach(away.gen)
	for i := 0; i < 4; i++ {
		put(t, l, 1)
	}
	drain(t, fa)
	drain(t, fb)
	ahead.ack(3)
	behind.ack(1)

	l.mu.Lock()
	pin := l.pinLocked(l.buf[l.lo+1]) // sequence 2: owed by behind and away
	l.mu.Unlock()
	if pin != behind {
		t.Fatalf("sequence 2 pinned by %v, want the furthest-behind connected reader", pin)
	}
	if !away.gone || l.evicted.Load() != 1 {
		t.Fatalf("detached ower: gone=%v evicted=%d, want evicted with its loss counted", away.gone, l.evicted.Load())
	}

	put(t, l, 1) // drops sequence 1, which both connected readers acked
	done := make(chan struct{})
	first, _ := l.reserve(1, 0)
	go func() { publishAt(l, first, 1); close(done) }() // must drop sequence 2: waits on behind
	waitFull(t, l)
	select {
	case <-done:
		t.Fatal("publish passed a chunk its connected owner had not acked")
	default:
	}
	behind.ack(2)
	<-done
	if behind.gone || l.evicted.Load() != 1 {
		t.Fatalf("pinning reader: gone=%v evicted=%d, want kept", behind.gone, l.evicted.Load())
	}
}

// waitFull blocks until a publish is waiting for room.
func waitFull(t *testing.T, l *feedLog) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		full := l.full
		l.mu.Unlock()
		if full {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("publish never waited for room")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogStallEvicts: a connected reader that never acks holds a
// spool-less log up for the stall timeout, then is evicted — its
// connection closed, its loss counted — and the producer moves on.
func TestLogStallEvicts(t *testing.T) {
	l := newFeedLog(WithReplayBuffer(2), withStallTimeout(20*time.Millisecond))
	r, gen, _, _ := l.open(&reader{id: "stuck"}, 0, &closer{})
	conn := r.conn.(*closer)
	for i := 0; i < 10; i++ {
		put(t, l, 1)
	}
	if !r.gone || !conn.closed || l.evicted.Load() != 1 {
		t.Fatalf("stalled reader: gone=%v closed=%v evicted=%d, want evicted once", r.gone, conn.closed, l.evicted.Load())
	}
	if _, err := (&fill{r: r, gen: gen}).next(false); !errors.Is(err, errStale) {
		t.Fatalf("evicted reader's fill: %v, want errStale", err)
	}
}

// TestLogBatchLargerThanTail: a batch bigger than the whole tail is
// still accepted — the tail always keeps its newest chunk — and the
// next batch waits for the reader's ack instead of evicting it.
func TestLogBatchLargerThanTail(t *testing.T) {
	l := newFeedLog(WithReplayBuffer(8), withStallTimeout(time.Minute))
	r, f := mustOpen(t, l, "reader", 0)
	put(t, l, 100)
	done := make(chan struct{})
	first, _ := l.reserve(100, 0)
	go func() { publishAt(l, first, 100); close(done) }()
	waitFull(t, l)
	if _, to, _ := drain(t, f); to != 100 {
		t.Fatalf("framed through %d, want 100", to)
	}
	r.ack(100)
	<-done
	if _, to, _ := drain(t, f); to != 200 || r.gone || l.evicted.Load() != 0 {
		t.Fatalf("framed through %d, gone=%v evicted=%d; want 200, kept", to, r.gone, l.evicted.Load())
	}
}

// TestLogConcurrentPublishers: batches reserved and published from
// several goroutines at once reach a reader as one gapless feed in
// sequence order, on a tail small enough that publishers wait on the
// reader's acks.
func TestLogConcurrentPublishers(t *testing.T) {
	const producers, batches = 4, 50
	l := newFeedLog(WithReplayBuffer(16), withStallTimeout(time.Minute))
	r, f := mustOpen(t, l, "reader", 0)
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for b := 0; b < batches; b++ {
				n := 1 + b%3
				first, err := l.reserve(n, 0)
				if err != nil {
					t.Error(err)
					return
				}
				publishAt(l, first, n)
			}
		}()
	}
	for running := producers; running > 0; {
		select {
		case <-done:
			running--
		default:
			drain(t, f)
			r.ack(r.sent)
		}
	}
	seq, _ := l.seq()
	if _, to, _ := drain(t, f); to != seq {
		t.Fatalf("reader framed through %d, feed head %d", to, seq)
	}
}

// TestLogAdoptClaims: an upstream frame is claimed at its own
// sequences — a stale resend claims nothing, a straddling one its
// suffix, a gap is refused with the head untouched — and a closing log
// claims nothing.
func TestLogAdoptClaims(t *testing.T) {
	l := newFeedLog()
	put(t, l, 10)
	for _, tc := range []struct {
		name      string
		n         int
		at, first uint64
		gap       bool
		head      uint64
	}{
		{"stale", 5, 3, 0, false, 10},
		{"ends at head", 5, 6, 0, false, 10},
		{"straddle", 5, 8, 11, false, 12},
		{"gap", 5, 20, 0, true, 12},
		{"contiguous", 3, 13, 13, false, 15},
	} {
		first, err := l.reserve(tc.n, tc.at)
		if head, _ := l.seq(); first != tc.first || errors.Is(err, ErrAdoptGap) != tc.gap || head != tc.head {
			t.Errorf("%s: %d events at %d claimed from %d (err %v), head %d; want from %d, gap %v, head %d",
				tc.name, tc.n, tc.at, first, err, head, tc.first, tc.gap, tc.head)
		}
		if first > 0 {
			publishAt(l, first, int(tc.head-first+1))
		}
	}
	l.shut(false)
	if _, err := l.reserve(1, 16); !errors.Is(err, ErrClosing) {
		t.Fatalf("claim on a closing log: %v", err)
	}
}

// TestLogCloseDrainsThenEOF: a closed log ends its readers with eof only
// once every batch reserved before the close is published, and an
// aborted one ends them with no eof at all.
func TestLogCloseDrainsThenEOF(t *testing.T) {
	l := newFeedLog()
	_, f := mustOpen(t, l, "reader", 0)
	put(t, l, 5)
	first, _ := l.reserve(5, 0)
	if !l.shut(false) || l.shut(false) {
		t.Fatal("shut must report the first close only")
	}
	if _, _, reject := tryOpen(l, "late", 0); reject != "server closing" {
		t.Fatalf("open on a closing log: %q", reject)
	}
	if _, to, eof := drain(t, f); to != 5 || eof {
		t.Fatalf("before the reserved batch: framed through %d, eof %v; want 5, none", to, eof)
	}
	publishAt(l, first, 5)
	if _, to, eof := drain(t, f); to != 10 || !eof {
		t.Fatalf("after it: framed through %d, eof %v; want 10, eof", to, eof)
	}

	l = newFeedLog()
	r, f := mustOpen(t, l, "reader", 0)
	put(t, l, 5)
	if !l.shut(true) {
		t.Fatal("abort did not close the log")
	}
	if _, err := f.next(false); !errors.Is(err, errStale) || !r.gone {
		t.Fatalf("aborted reader: %v, gone=%v; want errStale, evicted", err, r.gone)
	}
}
