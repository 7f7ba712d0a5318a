package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"sybilwild/internal/detector"
)

func snapAt(seq uint64) *detector.PipelineSnapshot {
	return &detector.PipelineSnapshot{
		Version:    detector.SnapshotVersion,
		Seq:        seq,
		CheckEvery: 1,
	}
}

// TestWriteLatestRoundTrip: the newest checkpoint comes back with
// session and sequence intact.
func TestWriteLatestRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "ckpt"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _, err := s.Latest(); err != nil || st != nil {
		t.Fatalf("empty store: st=%v err=%v, want nil,nil", st, err)
	}
	for _, seq := range []uint64{10, 250, 99} { // out-of-order write: newest by seq wins
		if _, err := s.Write("sess-a", snapAt(seq)); err != nil {
			t.Fatal(err)
		}
	}
	st, path, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Session != "sess-a" || st.Snapshot.Seq != 250 {
		t.Fatalf("latest = %+v (%s), want seq 250", st, path)
	}
}

// TestPruneKeepsNewest: only the newest keep generations survive.
func TestPruneKeepsNewest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := s.Write("s", snapAt(seq)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("kept %d files %v, want 2", len(names), names)
	}
	if st, _, _ := s.Latest(); st.Snapshot.Seq != 5 {
		t.Fatalf("latest seq %d after prune, want 5", st.Snapshot.Seq)
	}
}

// TestLatestSkipsDamagedNewest: a manually damaged newest file must
// not brick the store — the previous generation is restored instead.
func TestLatestSkipsDamagedNewest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("s", snapAt(7)); err != nil {
		t.Fatal(err)
	}
	path, err := s.Write("s", snapAt(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, from, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Snapshot.Seq != 7 {
		t.Fatalf("latest = %+v (%s), want fallback to seq 7", st, from)
	}
}

// TestLatestIgnoresForeignFiles: stray files in the directory are not
// checkpoints.
func TestLatestIgnoresForeignFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.txt", "checkpoint-abc.json", "checkpoint-1.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, _, err := s.Latest(); err != nil || st != nil {
		t.Fatalf("foreign files treated as checkpoints: st=%v err=%v", st, err)
	}
}
