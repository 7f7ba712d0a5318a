package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"sybilwild/internal/detector"
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

// offerAt starts a broker holding snap as the offer for key (part,
// parts), announced at seq, and returns its address.
func offerAt(t *testing.T, part, parts int, seq uint64, snap *detector.PipelineSnapshot) string {
	t.Helper()
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if snap != nil {
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.OfferSnapshot(srv.Addr(), part, parts, seq, data); err != nil {
			t.Fatal(err)
		}
	}
	return srv.Addr()
}

// deadAddr is the address of a broker that is no longer listening.
func deadAddr(t *testing.T) string {
	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	return srv.Addr()
}

// TestPickSource is the start-up rule as a table: what a worker of
// partition 1/3 starts from, given what its broker holds for the key —
// the broker's snapshot, a cold start, or a refusal to start.
func TestPickSource(t *testing.T) {
	const part, parts = 1, 3
	for _, tc := range []struct {
		name    string
		handoff bool
		addr    func(t *testing.T) string
		want    string // "broker", "cold", or an error substring
	}{
		{"neither", false, deadAddr, "cold"}, // without Handoff the broker is not asked
		{"neither, no offer", true, func(t *testing.T) string { return offerAt(t, part, parts, 0, nil) }, "cold"},
		{"broker only", true, func(t *testing.T) string { return offerAt(t, part, parts, 50, snapAt(50, part, parts)) }, "broker"},
		{"broker wrong partition", true, func(t *testing.T) string { return offerAt(t, part, parts, 50, snapAt(50, 0, parts)) },
			"broker's snapshot is for partition 0/3, not 1/3"},
		{"broker stamp differs from announcement", true, func(t *testing.T) string { return offerAt(t, part, parts, 51, snapAt(50, part, parts)) },
			"announced seq 51 but is stamped 50"},
		{"broker unreachable", true, deadAddr, "connection refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := adoptable(Config{Addr: tc.addr(t), Part: part, Parts: parts, Handoff: tc.handoff})
			got := "cold"
			switch {
			case err != nil:
				got = err.Error()
			case snap != nil && snap.Seq == 50:
				got = "broker"
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("picked %q, want %q", got, tc.want)
			}
		})
	}
	// A whole-feed worker (parts 0, or the group of one the broker and
	// pipeline normalize it to) finds the unpartitioned stamp at key 0/1.
	addr := offerAt(t, 0, 1, 7, snapAt(7, 0, 0))
	for _, parts := range []int{0, 1} {
		snap, err := adoptable(Config{Addr: addr, Parts: parts, Handoff: true})
		if err != nil || snap == nil || snap.Seq != 7 {
			t.Fatalf("whole feed as 0/%d: snap=%v err=%v", parts, snap, err)
		}
	}
}
