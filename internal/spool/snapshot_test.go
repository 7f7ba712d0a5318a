package spool

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// openWith opens dir with the feed appended through end, logging the
// spool's loud lines into lines.
func openWith(t *testing.T, dir string, end int, lines *[]string) *Spool {
	t.Helper()
	sp, err := Open(dir, WithLogger(func(f string, a ...any) { *lines = append(*lines, fmt.Sprintf(f, a...)) }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	if have := int(sp.End()); have < end {
		appendN(t, sp, uint64(have+1), end-have)
	}
	return sp
}

func snapFileNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

// TestSnapshotRoundTrip: a reopened spool loads the newest snapshot of
// every key, payload intact, and each key keeps one file on disk.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 300, &lines)
	for _, put := range []struct {
		part, parts int
		seq         uint64
	}{{1, 3, 10}, {1, 3, 250}, {0, 2, 99}, {0, 1, 7}, {1, 3, 250}} {
		payload := []byte(fmt.Sprintf("state of %d/%d at %d", put.part, put.parts, put.seq))
		if err := sp.PutSnapshot(put.part, put.parts, put.seq, payload); err != nil {
			t.Fatalf("put %+v: %v", put, err)
		}
	}
	sp.Close()
	got := openWith(t, dir, 0, &lines).LoadSnapshots()
	slices.SortFunc(got, func(a, b Snapshot) int { return cmp.Compare(a.Parts, b.Parts) })
	want := []Snapshot{
		{Part: 0, Parts: 1, Seq: 7, Data: []byte("state of 0/1 at 7")},
		{Part: 0, Parts: 2, Seq: 99, Data: []byte("state of 0/2 at 99")},
		{Part: 1, Parts: 3, Seq: 250, Data: []byte("state of 1/3 at 250")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v\nwant %+v", got, want)
	}
	if names := snapFileNames(t, dir); len(names) != 3 {
		t.Fatalf("snapshot files %v, want one per key", names)
	}
	if len(lines) != 0 {
		t.Fatalf("clean round trip logged %q", lines)
	}
}

// TestSnapshotDamagedNewestSkippedLoudly: a damaged newest file is
// never misread. It is dropped with a loud line and the key's previous
// file, left behind by a crash before the put pruned it, is loaded.
func TestSnapshotDamagedNewestSkippedLoudly(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 20, &lines)
	if err := sp.PutSnapshot(0, 2, 7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	older, err := os.ReadFile(filepath.Join(dir, snapName(0, 2, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSnapshot(0, 2, 8, []byte("eight")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(0, 2, 7)), older, 0o644); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, snapName(0, 2, 8))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // a flipped payload bit
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A whole file under another key's name is not that key's state.
	if err := os.WriteFile(filepath.Join(dir, snapName(1, 2, 7)), older, 0o644); err != nil {
		t.Fatal(err)
	}

	got := sp.LoadSnapshots()
	if len(got) != 1 || got[0].Seq != 7 || !bytes.Equal(got[0].Data, []byte("seven")) {
		t.Fatalf("loaded %+v, want only 0/2 at seq 7", got)
	}
	if len(lines) != 2 || !strings.Contains(lines[0]+lines[1], snapName(0, 2, 8)) ||
		!strings.Contains(lines[0]+lines[1], snapName(1, 2, 7)) {
		t.Fatalf("log lines %q, want one per damaged file", lines)
	}
	if names := snapFileNames(t, dir); !reflect.DeepEqual(names, []string{snapName(0, 2, 7)}) {
		t.Fatalf("files left %v, want only the loaded one", names)
	}
}

// TestSnapshotIgnoresForeignFiles: stray files in the directory are
// not snapshots, and loading leaves them alone.
func TestSnapshotIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 10, &lines)
	foreign := []string{"README.txt", "snapshot-abc.snap", "snapshot-0002-0001-00000000000000000005.snap.1.tmp",
		"snapshot-2-1-5.snap", "snapshot-0002-0002-00000000000000000005.snap", "7.snap"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.LoadSnapshots(); len(got) != 0 || len(lines) != 0 {
		t.Fatalf("foreign files read as snapshots: %+v, log %q", got, lines)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file %s touched: %v", name, err)
		}
	}
}

// TestSnapshotPastEndDropped: a snapshot stamped past the log's end
// covers events that did not survive; loading drops it loudly. Put
// refuses one outright.
func TestSnapshotPastEndDropped(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 40, &lines)
	if err := sp.PutSnapshot(0, 2, 41, []byte("ahead")); err == nil {
		t.Fatal("put past the spool's end accepted")
	}
	if err := sp.PutSnapshot(0, 2, 40, []byte("at end")); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	// The log loses its tail (a truncated spool, a copy from an older
	// backup): the events through seq 40 are gone.
	for _, seg := range []string{indexName, filepath.Base((&Spool{dir: dir}).segPath(1))} {
		if err := os.Remove(filepath.Join(dir, seg)); err != nil {
			t.Fatal(err)
		}
	}
	sp = openWith(t, dir, 30, &lines)
	if got := sp.LoadSnapshots(); len(got) != 0 {
		t.Fatalf("loaded %+v past the spool's end %d", got, sp.End())
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "past the spooled log's end 30") {
		t.Fatalf("log lines %q, want one naming the end", lines)
	}
	if names := snapFileNames(t, dir); len(names) != 0 {
		t.Fatalf("files left %v", names)
	}
}

// TestSnapshotOlderNeverReplacesNewer: an older offer arriving late is
// not written over the key's newer file.
func TestSnapshotOlderNeverReplacesNewer(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 100, &lines)
	if err := sp.PutSnapshot(2, 3, 90, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := sp.PutSnapshot(2, 3, 50, []byte("older")); err != nil {
		t.Fatalf("older put: %v, want a silent no-op", err)
	}
	got := sp.LoadSnapshots()
	if len(got) != 1 || got[0].Seq != 90 || string(got[0].Data) != "newer" {
		t.Fatalf("loaded %+v, want 2/3 at seq 90", got)
	}
	if names := snapFileNames(t, dir); !reflect.DeepEqual(names, []string{snapName(2, 3, 90)}) {
		t.Fatalf("files %v, want only the newer one", names)
	}
}

// TestSnapshotPinsRetention: Prune never deletes a held snapshot's
// resume point, whatever floor the transport passes, and lets it go
// once a newer snapshot replaces the key's. A reopened spool pins the
// snapshots LoadSnapshots returned.
func TestSnapshotPinsRetention(t *testing.T) {
	dir := t.TempDir()
	sp, err := Open(dir, WithSegmentBytes(1024), WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 1000)
	if err := sp.PutSnapshot(1, 2, 100, []byte("at 100")); err != nil {
		t.Fatal(err)
	}
	sp.Prune(1000)
	if first := sp.First(); first == 1 || first > 101 {
		t.Fatalf("spool starts at %d after prune; want past 1 and at most the snapshot's resume point 101", first)
	}
	if err := sp.PutSnapshot(1, 2, 600, []byte("at 600")); err != nil {
		t.Fatal(err)
	}
	sp.Prune(1000)
	if first := sp.First(); first <= 101 || first > 601 {
		t.Fatalf("spool starts at %d after the key moved on; want past 101 and at most 601", first)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	sp, err = Open(dir, WithSegmentBytes(1024), WithRetainBytes(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if got := sp.LoadSnapshots(); len(got) != 1 || got[0].Seq != 600 {
		t.Fatalf("reopened spool loaded %+v, want 1/2 at 600", got)
	}
	appendN(t, sp, 1001, 1000)
	sp.Prune(2000)
	if first := sp.First(); first > 601 {
		t.Fatalf("reopened spool pruned to %d, past the loaded snapshot's resume point 601", first)
	}
}

// TestSnapshotPrunedResumePointDropped: a snapshot whose resume point
// is no longer spooled (here: pruned before any snapshot was loaded,
// so nothing pinned it) cannot be resumed; loading drops it loudly.
func TestSnapshotPrunedResumePointDropped(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp, err := Open(dir, WithSegmentBytes(1024), WithRetainBytes(2048),
		WithLogger(func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, sp, 1, 1000)
	if err := sp.PutSnapshot(0, 2, 50, []byte("at 50")); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp, err = Open(dir, WithSegmentBytes(1024), WithRetainBytes(2048),
		WithLogger(func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sp.Prune(1000)
	if first := sp.First(); first <= 51 {
		t.Fatalf("spool starts at %d; test premise needs the resume point 51 pruned", first)
	}
	if got := sp.LoadSnapshots(); len(got) != 0 {
		t.Fatalf("loaded %+v with its resume point pruned", got)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "resume point 51 was pruned") {
		t.Fatalf("log lines %q, want one naming the pruned resume point", lines)
	}
	if names := snapFileNames(t, dir); len(names) != 0 {
		t.Fatalf("files left %v", names)
	}
}

// TestCutoverNotes: noted cutovers reload in barrier order across a
// reopen, and a note past the log's end — its record never appended —
// is dropped loudly and its file removed, so a reused sequence is not
// mistaken for a cut.
func TestCutoverNotes(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	sp := openWith(t, dir, 40, &lines)
	cuts := []Cutover{{From: 3, To: 2, Barrier: 40}, {From: 2, To: 3, Barrier: 9}, {From: 2, To: 4, Barrier: 41}}
	for _, c := range cuts {
		if err := sp.PutCutover(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.PutCutover(cuts[0]); err != nil {
		t.Fatalf("noting a cutover again: %v", err)
	}
	sp.Close()
	sp = openWith(t, dir, 0, &lines)
	if got, want := sp.LoadCutovers(), []Cutover{cuts[1], cuts[0]}; !slices.Equal(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "past the spooled log's end 40") {
		t.Fatalf("log lines %q, want one naming the end", lines)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "cutover-*")); len(names) != 2 {
		t.Fatalf("files left %v, want the two within the log", names)
	}
}
