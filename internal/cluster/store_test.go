package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/stream"
)

func snapAt(seq uint64, part, parts int) *detector.PipelineSnapshot {
	return &detector.PipelineSnapshot{
		Version:    detector.SnapshotVersion,
		Seq:        seq,
		Part:       part,
		Parts:      parts,
		CheckEvery: 1,
	}
}

func openTestStore(t *testing.T, keep int) *store {
	t.Helper()
	s, err := openStore(filepath.Join(t.TempDir(), "ckpt"), keep)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteLatestRoundTrip: the newest checkpoint comes back with
// session and sequence intact.
func TestWriteLatestRoundTrip(t *testing.T) {
	s := openTestStore(t, 0)
	if st, err := s.newest(); err != nil || st != nil {
		t.Fatalf("empty store: st=%v err=%v, want nil,nil", st, err)
	}
	for _, seq := range []uint64{10, 250, 99} { // out-of-order write: newest by seq wins
		if err := s.write("sess-a", snapAt(seq, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.newest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Session != "sess-a" || st.Snapshot.Seq != 250 {
		t.Fatalf("newest = %+v, want seq 250", st)
	}
}

// TestPruneKeepsNewest: only the newest keep generations survive.
func TestPruneKeepsNewest(t *testing.T) {
	s := openTestStore(t, 2)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.write("s", snapAt(seq, 0, 0)); err != nil {
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
	if st, _ := s.newest(); st.Snapshot.Seq != 5 {
		t.Fatalf("newest seq %d after prune, want 5", st.Snapshot.Seq)
	}
}

// TestLatestSkipsDamagedNewest: a manually damaged newest file must
// not brick the store — the previous generation is restored instead.
func TestLatestSkipsDamagedNewest(t *testing.T) {
	s := openTestStore(t, 3)
	if err := s.write("s", snapAt(7, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.write("s", snapAt(8, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, "checkpoint-00000000000000000008.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.newest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Snapshot.Seq != 7 {
		t.Fatalf("newest = %+v, want fallback to seq 7", st)
	}
}

// TestLatestIgnoresForeignFiles: stray files in the directory are not
// checkpoints.
func TestLatestIgnoresForeignFiles(t *testing.T) {
	s := openTestStore(t, 3)
	for _, name := range []string{"README.txt", "checkpoint-abc.json", "checkpoint-1.tmp", "7.json"} {
		if err := os.WriteFile(filepath.Join(s.dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := s.newest(); err != nil || st != nil {
		t.Fatalf("foreign files treated as checkpoints: st=%v err=%v", st, err)
	}
}

// TestCheckpointFileCompatible: testdata/checkpoint-v1 holds a file
// written by the checkpoint store before it moved into this package.
// It must still read as the newest valid state, and a worker started
// on a directory holding it must restore it and resume its session at
// the next sequence.
func TestCheckpointFileCompatible(t *testing.T) {
	const session, seq = "5e55105c0a7ab1e0", 318
	st, err := (&store{dir: "testdata/checkpoint-v1"}).newest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Session != session || st.Snapshot.Seq != seq {
		t.Fatalf("newest = %+v, want session %s at seq %d", st, session, seq)
	}

	dir := t.TempDir()
	data, err := os.ReadFile(st.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(st.path)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	filler := osn.Event{Type: osn.EvMessage, Actor: 1, Target: 2}
	for i := 0; i < seq; i++ { // the feed's head reaches the checkpoint's cut
		srv.BroadcastBatch([]osn.Event{filler})
	}
	w, err := Start(Config{Addr: srv.Addr(), Rule: detector.PaperRule(), Dir: dir, Every: time.Hour})
	if err != nil {
		t.Fatalf("start on the compatibility checkpoint: %v", err)
	}
	if w.ResumedFrom() != seq+1 || !strings.HasPrefix(w.Origin(), "restored ") {
		t.Fatalf("worker resumed from %d (%q), want %d from the checkpoint", w.ResumedFrom(), w.Origin(), seq+1)
	}
	for i := 0; i < 10; i++ {
		srv.BroadcastBatch([]osn.Event{filler})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.Pipeline().Seq(); got != seq+10 {
		t.Fatalf("worker stopped at seq %d, feed ended at %d", got, seq+10)
	}
	if got, want := w.Pipeline().FlaggedCount(), len(st.Snapshot.Flags); got != want || want == 0 {
		t.Fatalf("worker holds %d flags, the checkpoint %d", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-00000000000000000328.json")); err != nil {
		t.Fatalf("the final checkpoint is missing: %v", err)
	}
}

// fakeOffer is a broker offer for the source table: the announced
// sequence and the stamped snapshot it carries.
func fakeOffer(announced uint64, snap *detector.PipelineSnapshot) brokerSource {
	return func() (uint64, []byte, error) {
		data, err := json.Marshal(snap)
		return announced, data, err
	}
}

// TestPickSource is the start-up rule as a table: {local checkpoint,
// broker offer, neither} × {fresh, stale, wrong partition} → the state
// a worker of partition 1/3 starts from, or a refusal to start.
func TestPickSource(t *testing.T) {
	const part, parts = 1, 3
	noOffer := brokerSource(func() (uint64, []byte, error) { return 0, nil, stream.ErrNoSnapshot })
	unreachable := brokerSource(func() (uint64, []byte, error) { return 0, nil, errors.New("dial: connection refused") })
	for _, tc := range []struct {
		name   string
		local  *detector.PipelineSnapshot // nil: an empty checkpoint dir
		broker brokerSource               // nil: Handoff off, the broker is not asked
		want   string                     // "local", "broker", "cold", or an error substring
	}{
		{"neither", nil, nil, "cold"},
		{"neither, no offer", nil, noOffer, "cold"},
		{"local only", snapAt(50, part, parts), nil, "local"},
		{"local only, no offer", snapAt(50, part, parts), noOffer, "local"},
		{"broker only", nil, fakeOffer(50, snapAt(50, part, parts)), "broker"},
		{"local fresh, broker stale", snapAt(90, part, parts), fakeOffer(50, snapAt(50, part, parts)), "local"},
		{"local stale, broker fresh", snapAt(50, part, parts), fakeOffer(90, snapAt(90, part, parts)), "broker"},
		{"tie goes to the local checkpoint", snapAt(50, part, parts), fakeOffer(50, snapAt(50, part, parts)), "local"},
		{"local wrong partition", snapAt(50, 2, parts), nil, "is for partition 2/3, not 1/3"},
		{"local wrong partition, broker fresh", snapAt(50, part, 4), fakeOffer(90, snapAt(90, part, parts)), "is for partition 1/4"},
		{"local whole feed", snapAt(50, 0, 0), nil, "is for partition 0/0"},
		{"broker wrong partition", nil, fakeOffer(50, snapAt(50, 0, parts)), "broker's snapshot is for partition 0/3"},
		{"broker wrong partition, local fresh", snapAt(90, part, parts), fakeOffer(50, snapAt(50, 2, parts)), "is for partition 2/3"},
		{"broker stamp differs from announcement", nil, fakeOffer(51, snapAt(50, part, parts)), "announced seq 51 but is stamped 50"},
		{"broker unreachable", snapAt(50, part, parts), unreachable, "connection refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestStore(t, 0)
			if tc.local != nil {
				if err := s.write("local-session", tc.local); err != nil {
					t.Fatal(err)
				}
			}
			sources := []snapshotSource{s}
			if tc.broker != nil {
				sources = append(sources, tc.broker)
			}
			st, err := pickSource(part, parts, sources...)
			got := "cold"
			switch {
			case err != nil:
				got = err.Error()
			case st != nil && st.path != "" && st.Session == "local-session":
				got = "local"
			case st != nil && st.path == "":
				got = "broker"
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("picked %q, want %q", got, tc.want)
			}
		})
	}
	// A whole-feed worker (parts 0, or the group of one the broker and
	// pipeline normalize it to) accepts the unpartitioned stamp.
	for _, parts := range []int{0, 1} {
		st, err := pickSource(0, parts, fakeOffer(7, snapAt(7, 0, 0)))
		if err != nil || st == nil || st.Snapshot.Seq != 7 {
			t.Fatalf("whole feed as 0/%d: st=%v err=%v", parts, st, err)
		}
	}
}
