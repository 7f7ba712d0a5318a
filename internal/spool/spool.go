// Package spool is the disk tier of the feed's replay path: an
// append-only store of sequenced event batches in segment files, so a
// subscriber can resume from sequences that have long left the
// transport's bounded in-memory tail. stream.Server appends
// every broadcast batch here (when configured with WithSpool) and
// reads segments back to serve resumes the memory tier answers with
// ErrGap — making large snapshot intervals safe with a small
// in-memory tail, and a detector restart from a stale snapshot a
// replay from disk instead of a silent coverage gap. Beside the
// segments it keeps the broker's detector snapshots, one file per
// partition key (snapshot.go): the spool is the one owner of the
// broker's disk.
//
// # Segment format
//
// A segment file spool-<firstseq>.log (sequence zero-padded so
// lexicographic order is sequence order) holds consecutive
// length-prefixed binary v3 batch frames (internal/wire) —
// byte-identical to the frames the transport sends, so one codec serves
// both tiers and a spooled event costs the same bytes as one on the
// wire. Frames within and across segments are gapless: each frame's
// first sequence is the previous frame's last plus one. The
// highest-numbered segment is active (append target); the rest are
// sealed, immutable, and recorded in an atomically rewritten index file
// (spool.index.json, version 2) with their sequence range and byte
// size.
//
// A directory written by a build that spooled v2 JSON frames (index
// version 1, or a segment whose frames open with '{') is refused by
// Open with ErrJSONFrames and left untouched: its tail would otherwise
// scan as corrupt and be truncated away.
//
// Rolling is by size (WithSegmentBytes) or age (WithSegmentAge): the
// active segment is flushed, fsynced, sealed into the index, and a new
// active segment opened. Appends between rolls are buffered —
// durability is per sealed segment, matching the feed's semantics (the
// producer's in-memory sequence assignment dies with the process
// anyway; the spool's job is surviving *consumer* restarts).
//
// # Recovery
//
// Open replays the index, verifies every sealed segment (existence and
// size), and scans the unindexed tail segment frame by frame: a
// truncated or corrupt tail (torn write at crash) is truncated back to
// the last complete frame and appending continues there. Damaged or
// missing sealed segments are skipped with a loud log line, and the
// retained range shrinks to the contiguous run of segments ending at
// the newest — a reader never silently jumps a gap.
//
// # Retention
//
// Prune(floor, budget semantics): sealed segments are deleted oldest
// first while the spool exceeds the retention budget (WithRetainBytes;
// 0 keeps everything), but never past the floor — the transport passes
// the minimum acknowledged sequence across live subscriber sessions,
// so no un-acked sequence is ever deleted out from under a consumer.
package spool

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sybilwild/internal/wire"
)

// Defaults; each has an Option override.
const (
	// DefaultSegmentBytes rolls the active segment once it reaches this
	// size. Small enough that retention pruning has useful granularity,
	// large enough that fsync-on-roll is rare.
	DefaultSegmentBytes = 8 << 20
	// indexName is the atomic index of sealed segments.
	indexName = "spool.index.json"
	// indexVersion identifies the index schema and the frame format of
	// the segments it lists; an unknown version on load falls back to a
	// full directory scan. Version 1 indexed v2 JSON frames.
	indexVersion = 2
)

// ErrPruned is returned when a read asks for a sequence below the
// spool's retained range — the segments holding it were pruned (or
// damaged and skipped). The transport surfaces this as ErrGap.
var ErrPruned = errors.New("spool: sequence pruned from retention")

// ErrJSONFrames is returned by Open for a spool directory written in
// the v2 JSON frame format. This build reads binary v3 frames only; the
// directory is left exactly as it was found.
var ErrJSONFrames = errors.New("spool: directory holds v2 JSON frames; this build reads binary v3 frames only")

// ErrBroken is returned by AppendFrame after a write error has poisoned
// the spool; the store never silently drops a batch mid-stream.
var ErrBroken = errors.New("spool: store broken by earlier write error")

type options struct {
	segmentBytes int64
	segmentAge   time.Duration
	retainBytes  int64
	logf         func(format string, args ...any)
}

// Option configures Open.
type Option func(*options)

// WithSegmentBytes sets the size threshold at which the active
// segment is sealed and a new one started.
func WithSegmentBytes(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segmentBytes = n
		}
	}
}

// WithSegmentAge sets an age threshold for rolling: an active segment
// older than d is sealed on the next append even if under the size
// threshold, bounding how long the newest data can sit unsynced.
// Zero (the default) disables age-based rolling.
func WithSegmentAge(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.segmentAge = d
		}
	}
}

// WithRetainBytes sets the retention budget: once sealed segments
// exceed it, Prune deletes the oldest (never past its floor). Zero
// (the default) retains everything.
func WithRetainBytes(n int64) Option {
	return func(o *options) {
		if n >= 0 {
			o.retainBytes = n
		}
	}
}

// WithLogger routes the spool's loud-error lines (damaged segments,
// truncated tails) somewhere other than the standard logger.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(o *options) {
		if logf != nil {
			o.logf = logf
		}
	}
}

// segment is one file's metadata. For the active (last) segment size
// tracks logical bytes including the write buffer; flushed tracks what
// a reader may safely ReadAt.
type segment struct {
	path   string
	first  uint64 // first sequence in the file
	last   uint64 // last sequence in the file (== first-1 when empty)
	size   int64  // bytes (logical, including unflushed buffer for active)
	sealed bool
}

// indexFile is the persisted form of the sealed-segment list.
type indexFile struct {
	Version  int            `json:"version"`
	Segments []indexSegment `json:"segments"`
}

type indexSegment struct {
	File  string `json:"file"`
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
	Bytes int64  `json:"bytes"`
}

// Spool is a directory of append-only segment files holding the
// sequenced event log. Safe for concurrent use: one appender (the
// transport's fan-out) and any number of Readers.
type Spool struct {
	dir string
	opt options

	mu        sync.Mutex
	segs      []*segment // ascending by first; last one is active iff !sealed
	f         *os.File   // active segment file (nil until first append of a segment)
	wbuf      []byte     // pending bytes not yet written to f
	flushed   int64      // bytes of the active segment visible to readers
	openedAt  time.Time  // active segment creation time (age-based rolling)
	end       uint64     // last sequence appended (0 when empty)
	errSticky error      // first write failure; poisons future appends

	snapMu sync.Mutex // serializes the snapshot files (snapshot.go)
	// pins holds each key's held snapshot sequence (under mu): Prune
	// keeps every one's resume point.
	pins map[[2]int]uint64
}

// Open creates dir if needed, recovers any existing segments (index
// replay, damaged-segment skip, tail truncation) and returns the
// store ready to append at End()+1.
func Open(dir string, opts ...Option) (*Spool, error) {
	o := options{segmentBytes: DefaultSegmentBytes, logf: log.Printf}
	for _, fn := range opts {
		fn(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	s := &Spool{dir: dir, opt: o, pins: make(map[[2]int]uint64)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Spool) segPath(first uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("spool-%020d.log", first))
}

// seqOf parses the first sequence out of a segment filename,
// reporting ok=false for foreign files.
func seqOf(name string) (uint64, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "spool-") || !strings.HasSuffix(base, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, "spool-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// recover rebuilds in-memory state from the directory: sealed
// segments from the index (each verified on disk), then the unindexed
// tail scanned frame by frame with torn tails truncated away.
func (s *Spool) recover() error {
	idx, err := s.readIndex()
	if err != nil {
		return err
	}

	// Every segment-named file on disk, ascending by first sequence.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	onDisk := map[uint64]string{}
	var firsts []uint64
	for _, e := range entries {
		if first, ok := seqOf(e.Name()); ok && !e.IsDir() {
			onDisk[first] = filepath.Join(s.dir, e.Name())
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })

	// Sealed segments: trust the index, verify the bytes exist. The
	// indexed history's end is tracked across damaged entries too —
	// the tail segment's contiguity is judged against where the log
	// actually reached, not where the surviving files reach.
	indexed := map[uint64]bool{}
	for _, is := range idx {
		indexed[is.First] = true
		if is.Last > s.end {
			s.end = is.Last
		}
		path := filepath.Join(s.dir, filepath.Base(is.File))
		fi, err := os.Stat(path)
		switch {
		case err != nil:
			s.opt.logf("spool: sealed segment %s (seqs %d-%d) missing: %v — skipping; resumes below %d will fail",
				is.File, is.First, is.Last, err, is.Last+1)
			continue
		case fi.Size() != is.Bytes:
			s.opt.logf("spool: sealed segment %s damaged: %d bytes on disk, index records %d — skipping; resumes below %d will fail",
				is.File, fi.Size(), is.Bytes, is.Last+1)
			continue
		}
		s.segs = append(s.segs, &segment{path: path, first: is.First, last: is.Last, size: is.Bytes, sealed: true})
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].first < s.segs[j].first })

	// Unindexed files: normally at most one — the active tail being
	// written when the process died (the index is only rewritten on
	// roll). A lost or corrupt index leaves the whole history
	// unindexed, so every contiguous segment is scanned and re-adopted
	// (all but the newest resealed); anything breaking the chain is
	// foreign or beyond a torn segment and is skipped loudly. Getting
	// this right is what keeps End() honest — an understated End would
	// make a restarted producer reuse already-assigned sequence
	// numbers for different events.
	var recovered []*segment
	for _, first := range firsts {
		if indexed[first] {
			continue
		}
		path := onDisk[first]
		if s.end != 0 && first != s.end+1 {
			s.opt.logf("spool: segment %s starts at seq %d, expected %d — skipping damaged/foreign file",
				filepath.Base(path), first, s.end+1)
			continue
		}
		last, size, err := s.scanTail(path, first)
		if errors.Is(err, ErrJSONFrames) {
			return err
		}
		if err != nil {
			s.opt.logf("spool: tail segment %s unreadable: %v — skipping", filepath.Base(path), err)
			continue
		}
		seg := &segment{path: path, first: first, last: last, size: size}
		recovered = append(recovered, seg)
		s.segs = append(s.segs, seg)
		s.end = last
	}
	if len(recovered) > 0 {
		for _, seg := range recovered[:len(recovered)-1] {
			seg.sealed = true // older than the tail: immutable again
		}
		active := recovered[len(recovered)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("spool: reopen tail: %w", err)
		}
		if _, err := f.Seek(active.size, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("spool: reopen tail: %w", err)
		}
		s.f = f
		s.flushed = active.size
		s.openedAt = time.Now()
		if len(recovered) > 1 {
			// The resealed segments came from a lost index; rewrite it
			// so the next open trusts them without a rescan.
			if err := s.writeIndexLocked(); err != nil {
				s.opt.logf("spool: index rewrite after recovery: %v", err)
			}
		}
	}

	// Drop any leading segments that no longer chain contiguously into
	// the retained suffix (holes left by damaged/missing files).
	s.segs = contiguousSuffix(s.segs, s.opt.logf)
	return nil
}

// contiguousSuffix returns the longest suffix of segs (ascending) in
// which each segment starts where the previous ended, logging anything
// it cuts away.
func contiguousSuffix(segs []*segment, logf func(string, ...any)) []*segment {
	start := 0
	for i := 1; i < len(segs); i++ {
		if segs[i].first != segs[i-1].last+1 {
			start = i
		}
	}
	for _, dropped := range segs[:start] {
		logf("spool: segment %s (seqs %d-%d) precedes a gap — outside the retained range",
			filepath.Base(dropped.path), dropped.first, dropped.last)
	}
	return segs[start:]
}

// scanTail walks the frames of a recovered tail segment, validating
// sequence continuity, and truncates the file back to the last
// complete frame when it finds a torn or corrupt tail. It returns the
// last sequence held and the surviving byte size — or ErrJSONFrames,
// before anything is truncated, when the segment holds v2 JSON frames.
func (s *Spool) scanTail(path string, first uint64) (last uint64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var (
		br   = newByteReader(f)
		next = first
		good int64
	)
	for {
		payload, err := br.frame()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.opt.logf("spool: %s: torn tail at byte %d (%v) — truncating to last complete batch",
					filepath.Base(path), good, err)
			}
			break
		}
		if wire.IsControl(payload) {
			return 0, 0, fmt.Errorf("%w (%s)", ErrJSONFrames, filepath.Base(path))
		}
		seq, n, ok := wire.ParseBatchBounds(payload)
		if !ok || seq != next || n == 0 {
			s.opt.logf("spool: %s: corrupt frame at byte %d — truncating to last complete batch",
				filepath.Base(path), good)
			break
		}
		next = seq + uint64(n)
		good = br.offset
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != good {
		if err := os.Truncate(path, good); err != nil {
			return 0, 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	return next - 1, good, nil
}

// byteReader reads length-prefixed frames sequentially, tracking the
// offset of the end of the last complete frame.
type byteReader struct {
	r      io.Reader
	buf    []byte
	offset int64
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

// frame returns the next payload, or an error (io.EOF at a clean
// boundary, io.ErrUnexpectedEOF or a decode error on a torn tail).
func (b *byteReader) frame() ([]byte, error) {
	payload, err := wire.ReadFrame(b.r, b.buf)
	if err != nil {
		return nil, err
	}
	b.buf = payload
	b.offset += 4 + int64(len(payload))
	return payload, nil
}

// AppendFrame stores a pre-encoded batch frame covering n events
// starting at first. payload must be byte-identical to what
// wire.AppendBatch(nil, first, events) would emit — the broker's
// fan-out encodes each batch exactly once under the sequencer and
// hands the same immutable bytes here and to every subscriber socket,
// so the spool never encodes. The bytes are copied into the segment
// buffer; the caller keeps ownership of payload.
//
// Batches must be contiguous: first must equal End()+1 (any starting
// sequence is accepted on an empty spool). It reports whether the
// append sealed a segment — the transport uses that as its cue to run
// retention. Appends after a write failure return ErrBroken: the
// spool never hides a hole in the log.
func (s *Spool) AppendFrame(first uint64, n int, payload []byte) (rolled bool, err error) {
	if n == 0 {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendFrameLocked(first, n, payload)
}

func (s *Spool) appendFrameLocked(first uint64, n int, payload []byte) (rolled bool, err error) {
	if s.errSticky != nil {
		return false, ErrBroken
	}
	if s.end != 0 && first != s.end+1 {
		return false, fmt.Errorf("spool: append at seq %d, want %d (batches must be contiguous)", first, s.end+1)
	}
	frameLen := int64(4 + len(payload))

	active := s.active()
	if active != nil && (active.size+frameLen > s.opt.segmentBytes ||
		(s.opt.segmentAge > 0 && time.Since(s.openedAt) > s.opt.segmentAge)) {
		if err := s.rollLocked(); err != nil {
			s.errSticky = err
			return false, err
		}
		rolled = true
		active = nil
	}
	if active == nil {
		if err := s.openSegmentLocked(first); err != nil {
			s.errSticky = err
			return rolled, err
		}
		active = s.active()
	}
	s.wbuf = wire.AppendFrame(s.wbuf, payload)
	active.size += frameLen
	active.last = first + uint64(n) - 1
	s.end = active.last
	// Keep the OS-visible file loosely current without a syscall per
	// append: large pending buffers are written out eagerly, small
	// ones wait for the next reader flush or roll.
	if int64(len(s.wbuf)) >= 256<<10 {
		if err := s.flushLocked(); err != nil {
			s.errSticky = err
			return rolled, err
		}
	}
	return rolled, nil
}

// active returns the append-target segment, or nil when the newest
// segment is sealed (or the spool is empty).
func (s *Spool) active() *segment {
	if len(s.segs) == 0 {
		return nil
	}
	if seg := s.segs[len(s.segs)-1]; !seg.sealed {
		return seg
	}
	return nil
}

// openSegmentLocked creates a fresh active segment starting at seq.
func (s *Spool) openSegmentLocked(seq uint64) error {
	path := s.segPath(seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if errors.Is(err, os.ErrExist) {
		// A leftover file recovery declared damaged/foreign (it was
		// not admitted as the tail); the live log owns the name.
		s.opt.logf("spool: replacing damaged leftover segment %s", filepath.Base(path))
		if rerr := os.Remove(path); rerr == nil {
			f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("spool: create segment: %w", err)
	}
	s.f = f
	s.flushed = 0
	s.openedAt = time.Now()
	s.segs = append(s.segs, &segment{path: path, first: seq, last: seq - 1})
	return nil
}

// flushLocked writes the pending buffer to the active file, making it
// visible to readers.
func (s *Spool) flushLocked() error {
	if len(s.wbuf) == 0 {
		return nil
	}
	if s.f == nil {
		return errors.New("spool: pending bytes with no active segment")
	}
	if _, err := s.f.Write(s.wbuf); err != nil {
		return fmt.Errorf("spool: write segment: %w", err)
	}
	s.flushed += int64(len(s.wbuf))
	s.wbuf = s.wbuf[:0]
	return nil
}

// rollLocked seals the active segment: flush, fsync, close, record in
// the atomically-rewritten index.
func (s *Spool) rollLocked() error {
	active := s.active()
	if active == nil {
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("spool: fsync on roll: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("spool: close on roll: %w", err)
	}
	s.f = nil
	active.sealed = true
	if err := s.writeIndexLocked(); err != nil {
		return err
	}
	return nil
}

// writeIndexLocked atomically rewrites the sealed-segment index
// (tmp file, fsync, rename — a reader never sees a torn index).
func (s *Spool) writeIndexLocked() error {
	idx := indexFile{Version: indexVersion}
	for _, seg := range s.segs {
		if seg.sealed {
			idx.Segments = append(idx.Segments, indexSegment{
				File: filepath.Base(seg.path), First: seg.first, Last: seg.last, Bytes: seg.size,
			})
		}
	}
	data, err := json.Marshal(&idx)
	if err == nil {
		err = replaceFile(s.dir, indexName, data)
	}
	if err != nil {
		return fmt.Errorf("spool: index: %w", err)
	}
	syncDir(s.dir) // best effort: a lost rename only costs a rescan
	return nil
}

// replaceFile atomically replaces dir/name with the concatenation of
// parts: written to a temporary file in dir, fsynced and renamed into
// place, so a crash leaves the old file or the new one, never a torn
// one. The rename itself is durable once syncDir(dir) returns.
func replaceFile(dir, name string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	for _, p := range parts {
		if err == nil {
			_, err = tmp.Write(p)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	return err
}

// syncDir fsyncs directory dir, making the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readIndex loads the sealed-segment index, returning nil (full
// rescan territory) when it is absent or unreadable, and ErrJSONFrames
// when it indexes v2 JSON segments.
func (s *Spool) readIndex() ([]indexSegment, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return nil, nil
	}
	var idx indexFile
	switch {
	case json.Unmarshal(data, &idx) != nil || idx.Version > indexVersion || idx.Version < 1:
		s.opt.logf("spool: unreadable or mismatched index %s — treating sealed segments as unindexed", indexName)
		return nil, nil
	case idx.Version < indexVersion:
		return nil, fmt.Errorf("%w (%s version %d)", ErrJSONFrames, indexName, idx.Version)
	}
	return idx.Segments, nil
}

// First returns the first retained sequence (0 when the spool is
// empty). A resume at any sequence in [First(), End()+1] is
// serviceable.
func (s *Spool) First() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[0].first
}

// End returns the last appended sequence (0 when the spool is empty).
func (s *Spool) End() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Stats summarizes the store for operator output.
type Stats struct {
	Segments int    // segment files retained (incl. active)
	Bytes    int64  // total logical bytes
	First    uint64 // first retained sequence (0: empty)
	End      uint64 // last appended sequence (0: empty)
}

// Stats returns a snapshot of spool accounting.
func (s *Spool) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Segments: len(s.segs), End: s.end}
	if len(s.segs) > 0 {
		st.First = s.segs[0].first
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// Prune enforces the retention budget: while total size exceeds
// WithRetainBytes, sealed segments are deleted oldest-first — but
// never a segment holding sequences above floor, or above a held
// snapshot's sequence (snapshot.go). The transport passes the minimum
// acknowledged sequence across its subscriber sessions as floor, so
// pruning can starve on a lagging consumer but can never delete an
// event some session, or a worker adopting a held snapshot, still
// needs. With a zero budget Prune is a no-op: everything is retained.
func (s *Spool) Prune(floor uint64) {
	if s.opt.retainBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seq := range s.pins {
		floor = min(floor, seq)
	}
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	removed := false
	for len(s.segs) > 0 && total > s.opt.retainBytes {
		oldest := s.segs[0]
		if !oldest.sealed || oldest.last > floor {
			break // active, or still within some subscriber's or snapshot's range
		}
		if err := os.Remove(oldest.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.opt.logf("spool: prune %s: %v", filepath.Base(oldest.path), err)
			break
		}
		total -= oldest.size
		s.segs = s.segs[1:]
		removed = true
	}
	if removed {
		if err := s.writeIndexLocked(); err != nil {
			s.opt.logf("spool: index rewrite after prune: %v", err)
		}
	}
}

// Close flushes and syncs the active segment and rewrites the index.
// The spool stays readable on disk; a later Open resumes appending.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	if s.f != nil {
		if serr := s.f.Sync(); err == nil {
			err = serr
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	if ierr := s.writeIndexLocked(); err == nil {
		err = ierr
	}
	return err
}

// Remove closes the active segment without flushing or syncing it and
// deletes the spool's directory: the end of a spool whose bytes are
// worth nothing once its owner closes. The spool is unusable after.
func (s *Spool) Remove() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Close() // with no active segment s.f is nil, and Close just returns an error
	return os.RemoveAll(s.dir)
}

// Reader iterates batches from a starting sequence toward the head,
// reading sealed segments and the flushed prefix of the active one.
// A Reader holds no lock between calls and tolerates concurrent
// appends; it is not safe for concurrent use itself.
type Reader struct {
	sp   *Spool
	next uint64 // next sequence to hand out

	f     *os.File // current segment (read handle)
	path  string
	off   int64
	limit int64 // readable bytes in the current segment (cached; refreshed on exhaustion)
	hdr   [4]byte
	buf   []byte
}

// ReadFrom positions a reader at seq. Serviceable starting points are
// [First(), End()+1] on a non-empty spool (the latter meaning
// "caught up; wait for more"), or exactly 1... any seq on an empty
// spool positions at the (future) head. Reads below the retained
// range return ErrPruned.
func (s *Spool) ReadFrom(seq uint64) (*Reader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) > 0 {
		if seq < s.segs[0].first {
			return nil, fmt.Errorf("%w: seq %d below retained range [%d,%d]", ErrPruned, seq, s.segs[0].first, s.end)
		}
		if seq > s.end+1 {
			return nil, fmt.Errorf("spool: seq %d ahead of spooled log (end %d)", seq, s.end)
		}
	}
	return &Reader{sp: s, next: seq}, nil
}

// NextFrame returns the raw payload of the next on-disk frame at or
// past the reader's position, with the first sequence and event count
// it covers. Frames wholly below the position (a mid-segment start)
// are skipped; a frame straddling the position is returned whole, with
// first below the reader's prior position — the caller trims or
// re-encodes the suffix it wants. The payload aliases the reader's
// buffer and is only valid until the next call: callers forward the
// canonical bytes verbatim, or decode them, before reading on.
func (r *Reader) NextFrame() (first uint64, n int, payload []byte, err error) {
	for {
		payload, err = r.frameAt(r.next)
		if err != nil {
			return 0, 0, nil, err
		}
		var ok bool
		first, n, ok = wire.ParseBatchBounds(payload)
		if !ok {
			return 0, 0, nil, fmt.Errorf("spool: corrupt frame in %s at byte %d (seq %d expected)",
				filepath.Base(r.path), r.off, r.next)
		}
		if n == 0 || first > r.next {
			return 0, 0, nil, fmt.Errorf("spool: frame in %s covers seqs %d-%d, expected %d",
				filepath.Base(r.path), first, first+uint64(n)-1, r.next)
		}
		if first+uint64(n)-1 < r.next {
			continue // wholly below a mid-segment starting point
		}
		r.next = first + uint64(n)
		return first, n, payload, nil
	}
}

// frameAt returns the raw payload of the frame containing seq,
// advancing the reader's file position past it. io.EOF means seq is
// beyond everything flushed AND appended; the caller retries later.
// The read limit is cached so sealed segments are consumed without
// touching the spool lock per frame.
func (r *Reader) frameAt(seq uint64) ([]byte, error) {
	if r.f == nil || r.off+4 > r.limit {
		if err := r.reposition(seq); err != nil {
			return nil, err
		}
	}
	if _, err := r.f.ReadAt(r.hdr[:], r.off); err != nil {
		return nil, fmt.Errorf("spool: read %s: %w", filepath.Base(r.path), err)
	}
	n := int64(uint32(r.hdr[0])<<24 | uint32(r.hdr[1])<<16 | uint32(r.hdr[2])<<8 | uint32(r.hdr[3]))
	if n > wire.MaxFrameSize || r.off+4+n > r.limit {
		return nil, fmt.Errorf("spool: corrupt frame length %d in %s at byte %d", n, filepath.Base(r.path), r.off)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := r.f.ReadAt(r.buf, r.off+4); err != nil {
		return nil, fmt.Errorf("spool: read %s: %w", filepath.Base(r.path), err)
	}
	r.off += 4 + n
	return r.buf, nil
}

// reposition points the reader at the segment containing seq (opening
// it and resetting the offset on a segment switch) and refreshes the
// cached read limit — the full size for a sealed segment, the flushed
// prefix for the active one (pending appender bytes are flushed first
// so a catch-up never starves behind the write buffer).
func (r *Reader) reposition(seq uint64) error {
	r.sp.mu.Lock()
	defer r.sp.mu.Unlock()
	var target *segment
	for _, seg := range r.sp.segs {
		if seg.first <= seq && seq <= seg.last {
			target = seg
			break
		}
	}
	if target == nil {
		if len(r.sp.segs) > 0 && seq < r.sp.segs[0].first {
			return fmt.Errorf("%w: seq %d below retained range", ErrPruned, seq)
		}
		return io.EOF // at (or past) the head; nothing to read yet
	}
	if r.path != target.path {
		r.closeFile()
		f, err := os.Open(target.path)
		if err != nil {
			// Pruned between position checks, or damaged.
			return fmt.Errorf("%w: open %s: %v", ErrPruned, filepath.Base(target.path), err)
		}
		r.f = f
		r.path = target.path
		r.off = 0
	}
	if target.sealed {
		r.limit = target.size
		return nil
	}
	// Active segment: make everything appended visible, then read up
	// to the flushed watermark.
	if err := r.sp.flushLocked(); err != nil {
		return err
	}
	r.limit = r.sp.flushed
	if r.off >= r.limit {
		return io.EOF // caught up with the appender
	}
	return nil
}

func (r *Reader) closeFile() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
		r.path = ""
		r.off = 0
	}
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	r.closeFile()
	return nil
}
