// Detector snapshots beside the log. A broker keeps the freshest
// snapshot each detector worker offers for its partition key; on a
// spooled broker the spool stores it too, so a restarted broker still
// holds it. A snapshot is only a cache of a function of the feed, so it
// is never more durable than the feed: PutSnapshot makes the segments
// durable through the snapshot's sequence before the snapshot itself,
// and LoadSnapshots drops a snapshot stamped past the log's end. The
// feed in turn keeps what a held snapshot needs: Prune never deletes
// a held snapshot's resume point (its sequence + 1), so a snapshot
// goes only when a newer one for its key replaces it.
//
// # File format
//
// One file per (parts, part, seq), named
// snapshot-<parts>-<part>-<seq>.snap with every number zero-padded:
// the 28-byte header "sybsnap1" | parts u32 | part u32 | seq u64 |
// crc32c(payload) u32 (big endian), then the opaque payload. The header
// must match the name and the checksum the payload, or the file is
// damaged. Files are written through a temporary file, fsync, rename
// and directory fsync, so a crash leaves whole files only.

package spool

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

const (
	snapMagic     = "sybsnap1"
	snapHeaderLen = len(snapMagic) + 20
)

// Snapshot is one stored detector snapshot: its partition key, the
// feed sequence it is stamped at, and its opaque payload.
type Snapshot struct {
	Part, Parts int
	Seq         uint64
	Data        []byte
}

func snapName(part, parts int, seq uint64) string {
	return fmt.Sprintf("snapshot-%04d-%04d-%020d.snap", parts, part, seq)
}

// snapHeader is the header a file holding payload as snapshot sn
// begins with.
func snapHeader(sn Snapshot, payload []byte) []byte {
	hdr := make([]byte, 0, snapHeaderLen)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(sn.Parts))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(sn.Part))
	hdr = binary.BigEndian.AppendUint64(hdr, sn.Seq)
	return binary.BigEndian.AppendUint32(hdr, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// snapFiles lists the directory's snapshot files by key, each key's
// files newest first. Files whose name does not parse are foreign.
func (s *Spool) snapFiles() map[[2]int][]Snapshot {
	entries, _ := os.ReadDir(s.dir)
	files := make(map[[2]int][]Snapshot)
	for _, e := range entries {
		var sn Snapshot
		n, err := fmt.Sscanf(e.Name(), "snapshot-%d-%d-%d.snap", &sn.Parts, &sn.Part, &sn.Seq)
		if n != 3 || err != nil || sn.Part < 0 || sn.Part >= sn.Parts || e.Name() != snapName(sn.Part, sn.Parts, sn.Seq) {
			continue
		}
		k := [2]int{sn.Parts, sn.Part}
		files[k] = append(files[k], sn)
	}
	for _, fs := range files {
		slices.SortFunc(fs, func(a, b Snapshot) int { return cmp.Compare(b.Seq, a.Seq) })
	}
	return files
}

// PutSnapshot durably stores a snapshot of partition part of parts
// stamped at seq, then removes the key's older files. The active
// segment is flushed and fsynced first, so the feed through seq is on
// disk before any snapshot at seq is. A snapshot older than the key's
// stored one is not written, and that is no error: the fresher one
// stays. Safe for concurrent use with appends and readers.
func (s *Spool) PutSnapshot(part, parts int, seq uint64, payload []byte) error {
	if err := s.syncThrough(seq); err != nil {
		return err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	held := s.snapFiles()[[2]int{parts, part}]
	if len(held) > 0 && held[0].Seq > seq {
		return nil
	}
	hdr := snapHeader(Snapshot{Part: part, Parts: parts, Seq: seq}, payload)
	err := replaceFile(s.dir, snapName(part, parts, seq), hdr, payload)
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		return fmt.Errorf("spool: snapshot: %w", err)
	}
	s.pin(part, parts, seq)
	for _, old := range held {
		if old.Seq < seq {
			os.Remove(filepath.Join(s.dir, snapName(part, parts, old.Seq)))
		}
	}
	return nil
}

// pin records seq as the key's held snapshot, the resume point Prune
// keeps.
func (s *Spool) pin(part, parts int, seq uint64) {
	s.mu.Lock()
	s.pins[[2]int{parts, part}] = seq
	s.mu.Unlock()
}

// syncThrough makes the log through seq durable: it flushes the active
// segment under mu and fsyncs it outside, so appends go on while the
// disk syncs. Sealed segments were fsynced when they rolled, and so
// was this one if a roll closes it first.
func (s *Spool) syncThrough(seq uint64) error {
	s.mu.Lock()
	broken, end, f, err := s.errSticky != nil, s.end, s.f, s.flushLocked()
	s.mu.Unlock()
	switch {
	case broken:
		return ErrBroken
	case seq > end:
		return fmt.Errorf("spool: snapshot at seq %d is past the spooled log (end %d)", seq, end)
	case err == nil && f != nil:
		if err = f.Sync(); errors.Is(err, os.ErrClosed) {
			err = nil
		}
	}
	if err != nil {
		s.mu.Lock()
		s.errSticky = cmp.Or(s.errSticky, err)
		s.mu.Unlock()
		return fmt.Errorf("spool: sync before snapshot: %w", err)
	}
	return nil
}

// LoadSnapshots returns the newest valid stored snapshot of every
// partition key, in no particular order, and pins each for Prune. A
// broker calls it once, when it opens on the spool. Every other
// snapshot file is removed: a key's older ones, and, with a loud line,
// any that is damaged, stamped past End() (the events it covers did
// not survive) or whose resume point was pruned (the events after it
// are gone). Foreign files are left alone.
func (s *Spool) LoadSnapshots() []Snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	st := s.Stats()
	var out []Snapshot
	for _, files := range s.snapFiles() {
		kept := false
		for _, sn := range files {
			path := filepath.Join(s.dir, snapName(sn.Part, sn.Parts, sn.Seq))
			if kept {
				os.Remove(path)
				continue
			}
			data, err := os.ReadFile(path)
			switch {
			case err != nil:
			case len(data) < snapHeaderLen || !bytes.Equal(data[:snapHeaderLen], snapHeader(sn, data[snapHeaderLen:])):
				err = errors.New("header does not match its name, or checksum mismatch")
			case sn.Seq > st.End:
				err = fmt.Errorf("stamped past the spooled log's end %d", st.End)
			case sn.Seq+1 < st.First:
				err = fmt.Errorf("its resume point %d was pruned (the spool starts at %d)", sn.Seq+1, st.First)
			}
			if err != nil {
				s.opt.logf("spool: snapshot %s unusable: %v — dropped", filepath.Base(path), err)
				os.Remove(path)
				continue
			}
			sn.Data, kept = data[snapHeaderLen:], true
			s.pin(sn.Part, sn.Parts, sn.Seq)
			out = append(out, sn)
		}
	}
	return out
}
