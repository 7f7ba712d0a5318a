package cluster_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sybilwild/internal/cluster"
	"sybilwild/internal/osn"
)

// copyNewestCheckpoint copies the newest checkpoint file in from into
// to and returns its sequence.
func copyNewestCheckpoint(t *testing.T, from, to string) uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(from, "checkpoint-*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint in %s (%v)", from, err)
	}
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(to, filepath.Base(names[len(names)-1])), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, seq, err := cluster.NewestCheckpoint(to)
	if err != nil || seq == 0 {
		t.Fatalf("copied checkpoint reads as seq %d (%v)", seq, err)
	}
	return seq
}

// TestStandbyPromotesPastStaleCheckpoint: a standby whose checkpoint
// dir holds a checkpoint of its partition must still promote when the
// partition's worker dies. Every dial presents the session id it
// claimed the key for — the only one the broker admits — never the
// checkpoint's, and the state it starts from is the freshest: the dead
// worker's broker offer over a stale local checkpoint, the local one
// when it is at least as fresh. Either way the cluster's union flag set
// stays exactly the single run's.
func TestStandbyPromotesPastStaleCheckpoint(t *testing.T) {
	events, rule := campaignFeed()
	want := singleRunFlags(t, events, rule)
	const k = 2
	for _, tc := range []struct {
		name       string
		localFresh bool // the standby's checkpoint is the victim's last
	}{{"stale local adopts the offer", false}, {"fresh local restores", true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := clusterServer(t)
			workers := make([]*cluster.Worker, k)
			cfgs := make([]cluster.Config, k)
			for part := range workers {
				cfgs[part] = workerConfig(t, srv.Addr(), part, k, rule)
				cfgs[part].Handoff = true
				w, err := cluster.Start(cfgs[part])
				if err != nil {
					t.Fatalf("start worker %d/%d: %v", part, k, err)
				}
				workers[part] = w
			}
			victim, sbCfg := workers[0], workerConfig(t, srv.Addr(), 0, k, rule)
			var local uint64
			var sb *cluster.Standby
			startStandby := func() {
				var err error
				if sb, err = cluster.StartStandby(sbCfg); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sb.Stop)
			}

			leg1, leg2 := len(events)/5, 3*len(events)/5
			for _, ev := range events[:leg1] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			waitOffered(t, victim, 0) // offers follow checkpoints
			if !tc.localFresh {
				local = copyNewestCheckpoint(t, cfgs[0].Dir, sbCfg.Dir)
				startStandby()
			}
			for _, ev := range events[leg1:leg2] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			waitOffered(t, victim, local)
			victim.Kill()
			if err := victim.Wait(); err == nil {
				t.Fatal("killed worker reported a clean end of feed")
			}
			if tc.localFresh {
				local = copyNewestCheckpoint(t, cfgs[0].Dir, sbCfg.Dir)
				startStandby()
			}
			<-sb.Done()
			promoted := sb.Worker()
			if promoted == nil {
				t.Fatalf("standby with a local checkpoint never promoted: %v", sb.Err())
			}
			workers[0] = promoted
			if tc.localFresh {
				if promoted.ResumedFrom() != local+1 || !strings.HasPrefix(promoted.Origin(), "restored ") {
					t.Fatalf("standby started from %q at seq %d, want its checkpoint %d",
						promoted.Origin(), promoted.ResumedFrom(), local)
				}
			} else if promoted.HandoffSeq() < victim.OfferedSeq() || promoted.ResumedFrom() != promoted.HandoffSeq()+1 {
				t.Fatalf("standby started from %q at seq %d, victim had offered %d",
					promoted.Origin(), promoted.ResumedFrom(), victim.OfferedSeq())
			}

			for _, ev := range events[leg2:] {
				srv.BroadcastBatch([]osn.Event{ev})
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("broker close: %v", err)
			}
			checkUnion(t, workers, uint64(len(events)), want)
			if first := promoted.FirstApplied(); first < promoted.ResumedFrom() {
				t.Fatalf("standby replayed seq %d below its resume point %d", first, promoted.ResumedFrom())
			}
		})
	}
}
