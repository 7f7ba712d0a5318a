package spool

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/wire"
)

func testEvent(i int) osn.Event {
	return osn.Event{
		Type:   osn.EvFriendRequest,
		At:     int64(i),
		Actor:  osn.AccountID(i % 97),
		Target: osn.AccountID((i + 1) % 89),
	}
}

// appendEvents appends events with first sequence first through the
// production path: one frame encoded by wire.AppendBatch.
func appendEvents(sp *Spool, first uint64, evs []osn.Event) (rolled bool, err error) {
	return sp.AppendFrame(first, len(evs), wire.AppendBatch(nil, first, evs))
}

// appendN appends events with sequences [from, from+n) one batch per
// call, the shape the transport's Broadcast produces.
func appendN(t *testing.T, sp *Spool, from uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := from + uint64(i)
		if _, err := appendEvents(sp, seq, []osn.Event{testEvent(int(seq))}); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
	}
}

// drain reads everything from seq to the spool head frame by frame,
// asserting sequence continuity and event identity.
func drain(t *testing.T, sp *Spool, from uint64) (count int) {
	t.Helper()
	rd, err := sp.ReadFrom(from)
	if err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	defer rd.Close()
	next := from
	var buf []osn.Event
	for {
		first, n, payload, err := rd.NextFrame()
		if errors.Is(err, io.EOF) {
			return count
		}
		if err != nil {
			t.Fatalf("NextFrame at seq %d: %v", next, err)
		}
		seq, evs, ok := wire.ParseBatch(payload, buf[:0])
		if !ok || seq != first || len(evs) != n {
			t.Fatalf("frame at seq %d: ok=%v seq=%d events=%d, bounds say %d", first, ok, seq, len(evs), n)
		}
		buf = evs[:0]
		if first < next { // a mid-frame start hands out the straddling frame whole
			evs, first = evs[next-first:], next
		}
		if first != next {
			t.Fatalf("frame starts at %d, want %d", first, next)
		}
		for i, ev := range evs {
			want := testEvent(int(first) + i)
			if ev != want {
				t.Fatalf("seq %d: event %+v, want %+v", first+uint64(i), ev, want)
			}
		}
		next += uint64(len(evs))
		count += len(evs)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	sp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 1, 1000)
	if got := drain(t, sp, 1); got != 1000 {
		t.Fatalf("read %d events, want 1000", got)
	}
	if got := drain(t, sp, 501); got != 500 {
		t.Fatalf("mid-log read got %d events, want 500", got)
	}
	if first, end := sp.First(), sp.End(); first != 1 || end != 1000 {
		t.Fatalf("bounds [%d,%d], want [1,1000]", first, end)
	}
}

func TestReadInterleavedWithAppends(t *testing.T) {
	sp, err := Open(t.TempDir(), WithSegmentBytes(2048))
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
	for round := 0; round < 20; round++ {
		appendN(t, sp, sp.End()+1, 37)
		for {
			first, n, _, err := rd.NextFrame()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if first != next {
				t.Fatalf("round %d: frame at %d, want %d", round, first, next)
			}
			next += uint64(n)
		}
		if next != sp.End()+1 {
			t.Fatalf("round %d: reader caught up to %d, head at %d", round, next-1, sp.End())
		}
	}
}

func TestRollBySizeSealsAndIndexes(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 500)
	st := sp.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments from 1KiB rolling, got %d", st.Segments)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, indexName)); err != nil {
		t.Fatalf("no index written: %v", err)
	}
	// Reopen: everything must still read back.
	sp2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if got := drain(t, sp2, 1); got != 500 {
		t.Fatalf("after reopen read %d events, want 500", got)
	}
	if sp2.End() != 500 {
		t.Fatalf("End after reopen = %d, want 500", sp2.End())
	}
	// And appending continues contiguously.
	appendN(t, sp2, 501, 50)
	if got := drain(t, sp2, 450); got != 101 {
		t.Fatalf("read across reopen boundary got %d, want 101", got)
	}
}

func TestRollByAge(t *testing.T) {
	sp, err := Open(t.TempDir(), WithSegmentAge(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 1, 10)
	time.Sleep(25 * time.Millisecond)
	appendN(t, sp, 11, 1) // append after the age threshold must seal the old segment
	if st := sp.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want 2 (age roll)", st.Segments)
	}
	if got := drain(t, sp, 1); got != 11 {
		t.Fatalf("read %d events, want 11", got)
	}
}

func TestAppendContiguityEnforced(t *testing.T) {
	sp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 1, 5)
	if _, err := appendEvents(sp, 7, []osn.Event{testEvent(7)}); err == nil {
		t.Fatal("gap append accepted; spool must enforce contiguity")
	}
	// The failed append must not have poisoned the store.
	if _, err := appendEvents(sp, 6, []osn.Event{testEvent(6)}); err != nil {
		t.Fatalf("contiguous append after rejected gap: %v", err)
	}
}

// TestReopenTruncatedTail is the crash edge the issue names: the
// active segment's last frame is torn (partial write at kill -9).
// Open must recover to the last complete batch, truncate the torn
// bytes, and continue appending from there.
func TestReopenTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 100)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop a few bytes off the active segment, leaving
	// a frame header that promises more bytes than exist.
	tail := activeSegmentPath(t, dir)
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var logged []string
	sp2, err := Open(dir, WithLogger(func(f string, a ...any) {
		logged = append(logged, fmt.Sprintf(f, a...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.End() != 99 {
		t.Fatalf("End after torn-tail recovery = %d, want 99 (last complete batch)", sp2.End())
	}
	if len(logged) == 0 || !strings.Contains(strings.Join(logged, "\n"), "truncating") {
		t.Fatalf("torn tail recovered silently; want a loud log line, got %q", logged)
	}
	// Re-append the lost sequence and read the whole log back.
	appendN(t, sp2, 100, 1)
	if got := drain(t, sp2, 1); got != 100 {
		t.Fatalf("read %d events after recovery, want 100", got)
	}
}

// TestReopenCorruptTailFrame: tail damage inside the payload (not a
// clean truncation) must also recover to the last complete batch.
func TestReopenCorruptTailFrame(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 50)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	tail := activeSegmentPath(t, dir)
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(tail, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage mid-payload of the final frame, from its last record's
	// type byte on: 'X' is no event type.
	if _, err := f.WriteAt([]byte("XXXX"), fi.Size()-21); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sp2, err := Open(dir, WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.End() != 49 {
		t.Fatalf("End after corrupt-frame recovery = %d, want 49", sp2.End())
	}
	if got := drain(t, sp2, 1); got != 49 {
		t.Fatalf("read %d events, want 49", got)
	}
}

// TestOpenRefusesJSONSpool: testdata/spool-v2-json was written by the
// build that spooled v2 JSON frames (two sealed segments, their index
// and an active tail). Open must refuse it with an error naming the
// old frame format — through the index, and through the tail scan when
// the index is gone — and must leave every file byte-identical: read
// as binary frames, its tail would scan as corrupt and be truncated to
// nothing, silently losing the retained log.
func TestOpenRefusesJSONSpool(t *testing.T) {
	src := filepath.Join("testdata", "spool-v2-json")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[string][]byte{}
	for _, e := range entries {
		if orig[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for _, dropIndex := range []bool{false, true} {
		dir := t.TempDir()
		for name, data := range orig {
			if dropIndex && name == indexName {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sp, err := Open(dir, WithLogger(t.Logf))
		if err == nil {
			sp.Close()
			t.Fatalf("index dropped=%v: a v2 JSON spool opened", dropIndex)
		}
		if !errors.Is(err, ErrJSONFrames) || !strings.Contains(err.Error(), "JSON") {
			t.Fatalf("index dropped=%v: err = %v, want one naming the JSON frame format", dropIndex, err)
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := len(orig)
		if dropIndex {
			want--
		}
		if len(after) != want {
			t.Fatalf("index dropped=%v: %d files after Open, want %d", dropIndex, len(after), want)
		}
		for _, e := range after {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(orig[e.Name()]) {
				t.Fatalf("index dropped=%v: Open modified %s", dropIndex, e.Name())
			}
		}
	}
}

// TestReopenAfterLostIndex: with the index gone (or corrupt), every
// segment is unindexed; recovery must chain-scan the whole contiguous
// history — an understated End() would make a restarted producer
// reuse already-assigned sequence numbers for different events.
func TestReopenAfterLostIndex(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 500)
	nsegs := sp.Stats().Segments
	if nsegs < 3 {
		t.Fatalf("need ≥3 segments, got %d", nsegs)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}

	sp2, err := Open(dir, WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	if first, end := sp2.First(), sp2.End(); first != 1 || end != 500 {
		t.Fatalf("bounds after lost index = [%d,%d], want [1,500]", first, end)
	}
	if got := drain(t, sp2, 1); got != 500 {
		t.Fatalf("read %d events after lost-index recovery, want 500", got)
	}
	// Appends continue at the true end, and recovery re-wrote the
	// index so a third open trusts it again.
	appendN(t, sp2, 501, 20)
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	sp3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp3.Close()
	if got := drain(t, sp3, 1); got != 520 {
		t.Fatalf("read %d events after second reopen, want 520", got)
	}
}

// TestDamagedSealedSegmentSkippedLoudly: a sealed segment that is
// missing or size-mismatched on reopen is skipped with a loud error,
// and the retained range shrinks to the contiguous suffix — reads
// below it fail with ErrPruned instead of silently jumping the hole.
func TestDamagedSealedSegmentSkippedLoudly(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 500)
	if sp.Stats().Segments < 4 {
		t.Fatalf("need ≥4 segments for the damage test, got %d", sp.Stats().Segments)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the second sealed segment (size mismatch).
	segs := sealedSegments(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 sealed segments, got %d", len(segs))
	}
	victim := segs[1]
	if err := os.Truncate(victim.path, victim.size/2); err != nil {
		t.Fatal(err)
	}

	var logged []string
	sp2, err := Open(dir, WithLogger(func(f string, a ...any) {
		logged = append(logged, fmt.Sprintf(f, a...))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if len(logged) == 0 || !strings.Contains(strings.Join(logged, "\n"), "damaged") {
		t.Fatalf("damaged segment skipped silently; logs: %q", logged)
	}
	first := sp2.First()
	if first <= victim.last {
		t.Fatalf("retained range starts at %d, must start after the damaged segment's last seq %d", first, victim.last)
	}
	if sp2.End() != 500 {
		t.Fatalf("End = %d, want 500", sp2.End())
	}
	// Below the hole: loud ErrPruned. At the suffix: full read.
	if _, err := sp2.ReadFrom(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("ReadFrom(1) across damage: err = %v, want ErrPruned", err)
	}
	if got := drain(t, sp2, first); got != int(500-first+1) {
		t.Fatalf("suffix read got %d events, want %d", got, 500-first+1)
	}
}

// TestRetentionNeverPrunesPastFloor: with a tiny byte budget, Prune
// deletes old sealed segments — but never one holding sequences above
// the floor (the transport's minimum subscriber ack).
func TestRetentionNeverPrunesPastFloor(t *testing.T) {
	sp, err := Open(t.TempDir(), WithSegmentBytes(1024), WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 1, 1000)
	before := sp.Stats()

	// Floor pins everything: nothing may go, regardless of budget.
	sp.Prune(0)
	if st := sp.Stats(); st.Segments != before.Segments || st.First != 1 {
		t.Fatalf("Prune(0) deleted pinned data: %+v -> %+v", before, st)
	}

	// Floor at 400: segments wholly ≤400 may go (budget forces it),
	// anything holding >400 must survive.
	sp.Prune(400)
	st := sp.Stats()
	if st.First == 1 {
		t.Fatal("budget-exceeded prune removed nothing")
	}
	if st.First > 401 {
		t.Fatalf("prune deleted un-acked sequences: first retained %d, floor 400", st.First)
	}
	if got := drain(t, sp, 401); got != 600 {
		t.Fatalf("post-prune read from 401 got %d events, want 600", got)
	}
	if _, err := sp.ReadFrom(st.First - 1); !errors.Is(err, ErrPruned) {
		t.Fatalf("read below retention: err = %v, want ErrPruned", err)
	}

	// Unlimited budget (the default) never prunes at all.
	sp2, err := Open(t.TempDir(), WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	appendN(t, sp2, 1, 500)
	sp2.Prune(500)
	if st := sp2.Stats(); st.First != 1 {
		t.Fatalf("zero-budget spool pruned: %+v", st)
	}
}

// TestPruneSurvivesReopen: retention state (the shrunken range) must
// be consistent after prune + reopen.
func TestPruneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1024), WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 1000)
	sp.Prune(800)
	first := sp.Stats().First
	if first == 1 {
		t.Fatal("prune removed nothing; test premise broken")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if got := sp2.First(); got != first {
		t.Fatalf("First after reopen = %d, want %d", got, first)
	}
	if got := drain(t, sp2, first); got != int(1000-first+1) {
		t.Fatalf("read %d events after reopen, want %d", got, 1000-first+1)
	}
}

func TestReadFromBoundsChecked(t *testing.T) {
	sp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 10, 5) // spool starts mid-sequence (restart adoption)
	if _, err := sp.ReadFrom(9); !errors.Is(err, ErrPruned) {
		t.Fatalf("below range: err = %v, want ErrPruned", err)
	}
	if _, err := sp.ReadFrom(15); err != nil { // End()+1: caught-up reader
		t.Fatalf("ReadFrom(End+1): %v", err)
	}
	if _, err := sp.ReadFrom(16); err == nil {
		t.Fatal("ReadFrom past End()+1 accepted")
	}
}

// TestMultiEventFramesContiguous: frames of several events each roll
// across segments into one contiguous log that reads back whole, and
// a frame that skips a sequence is refused.
func TestMultiEventFramesContiguous(t *testing.T) {
	sp, err := Open(t.TempDir(), WithSegmentBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	seq := uint64(1)
	for i := 0; i < 100; i++ {
		evs := []osn.Event{testEvent(int(seq)), testEvent(int(seq) + 1), testEvent(int(seq) + 2)}
		if _, err := appendEvents(sp, seq, evs); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
		seq += uint64(len(evs))
	}
	if got := drain(t, sp, 1); got != 300 {
		t.Fatalf("read %d events, want 300", got)
	}
	if _, err := appendEvents(sp, seq+1, []osn.Event{testEvent(0)}); err == nil {
		t.Fatal("non-contiguous AppendFrame accepted")
	}
}

// TestReaderNextFrame pins the raw-frame read path: frames come back
// byte-identical to what was appended, a mid-frame starting point
// returns the straddling frame whole, and EOF at the head clears once
// more is appended.
func TestReaderNextFrame(t *testing.T) {
	sp, err := Open(t.TempDir(), WithSegmentBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	var want [][]byte
	seq := uint64(1)
	for i := 0; i < 50; i++ {
		evs := []osn.Event{testEvent(int(seq)), testEvent(int(seq) + 1)}
		payload := wire.AppendBatch(nil, seq, evs)
		want = append(want, payload)
		if _, err := sp.AppendFrame(seq, len(evs), payload); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
		seq += 2
	}
	rd, err := sp.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i, w := range want {
		first, n, payload, err := rd.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if first != 1+uint64(2*i) || n != 2 {
			t.Fatalf("frame %d: first=%d n=%d, want %d/2", i, first, n, 1+2*i)
		}
		if string(payload) != string(w) {
			t.Fatalf("frame %d bytes diverge:\n%s\n%s", i, payload, w)
		}
	}
	if _, _, _, err := rd.NextFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("at head: err = %v, want EOF", err)
	}
	// Mid-frame start: seq 4 sits inside the frame covering 3-4.
	mid, err := sp.ReadFrom(4)
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	first, n, payload, err := mid.NextFrame()
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 || n != 2 || string(payload) != string(want[1]) {
		t.Fatalf("straddling frame: first=%d n=%d payload=%s", first, n, payload)
	}
	if first, _, _, err := mid.NextFrame(); err != nil || first != 5 {
		t.Fatalf("after straddle: first=%d err=%v, want 5/nil", first, err)
	}
}

func TestAppendAfterWriteErrorIsBroken(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	appendN(t, sp, 1, 10)
	// Sabotage the active file descriptor: close it behind the
	// spool's back so the next flush fails.
	sp.mu.Lock()
	sp.f.Close()
	sp.mu.Unlock()
	var sawErr error
	for i := 0; i < 100_000 && sawErr == nil; i++ {
		_, sawErr = appendEvents(sp, sp.End()+1, []osn.Event{testEvent(i)})
	}
	if sawErr == nil {
		t.Fatal("writes to a closed file never surfaced")
	}
	if _, err := appendEvents(sp, sp.End()+1, []osn.Event{testEvent(0)}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failure: err = %v, want ErrBroken", err)
	}
}

// --- helpers ---

type segInfo struct {
	path        string
	first, last uint64
	size        int64
}

// sealedSegments reads the index file the way a test can trust.
func sealedSegments(t *testing.T, dir string) []segInfo {
	t.Helper()
	sp, err := Open(dir, WithLogger(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var out []segInfo
	for _, seg := range sp.segs {
		if seg.sealed {
			out = append(out, segInfo{path: seg.path, first: seg.first, last: seg.last, size: seg.size})
		}
	}
	return out
}

// activeSegmentPath returns the highest-numbered segment file.
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	for _, e := range entries {
		if seq, ok := seqOf(e.Name()); ok && seq >= bestSeq {
			bestSeq = seq
			best = filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		t.Fatal("no segment files found")
	}
	return best
}
