// Automatic standby promotion: a Standby watches one partition key on
// the broker and, when its worker dies (stall eviction, crash, kill),
// promotes itself — claims the key, starts a Worker under the claimed
// session id, and so adopts the dead worker's freshest broker offer —
// with no operator action. A spooled broker that restarted still holds
// that offer, and counts its key as seen once the key's worker had the
// broker's restart grace to come back, so a standby promotes there
// too, but not past a live worker that is still redialing.
// The broker's claim protocol makes the promotion race-free: of N
// standbys watching the same partition, exactly one wins the claim;
// the rest keep watching (the winner's connection resets their
// qualifying streak).
//
// The promotion gate deliberately defers to a coordinated rebalance:
// a fence on the group shape (Barrier != 0) means a cutover is
// mid-flight and the coordinator, not the standby, owns recovery of
// the partition's state.

package cluster

import (
	"fmt"
	"sync"
	"time"

	"sybilwild/internal/stream"
)

const (
	standbyPoll = 50 * time.Millisecond // broker polling cadence

	// standbyConfirm is how many consecutive qualifying polls (partition
	// seen before, nothing connected, snapshot available, no fence) must
	// accumulate before promoting — debounce against a worker's brief
	// reconnect window.
	standbyConfirm = 3
)

// Standby watches a partition and promotes itself into a Worker when
// the partition's owner dies. Create with StartStandby; Done closes
// when the watch ends (promotion finished, or Stop), after which
// Worker/Err report the outcome.
type Standby struct {
	cfg      Config
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	w   *Worker // promoted worker; nil if the watch ended without one
	err error
}

// StartStandby begins watching cfg's partition on its broker. The
// promoted worker runs cfg with Handoff set.
func StartStandby(cfg Config) (*Standby, error) {
	if cfg.Parts < 1 || cfg.Part < 0 || cfg.Part >= cfg.Parts {
		return nil, fmt.Errorf("cluster: invalid partition %d/%d", cfg.Part, cfg.Parts)
	}
	cfg.Handoff = true
	s := &Standby{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go s.watch()
	return s, nil
}

func (s *Standby) watch() {
	defer close(s.done)
	cfg := s.cfg
	streak := 0
	ticker := time.NewTicker(standbyPoll)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		st, err := stream.QueryPartition(cfg.Addr, cfg.Part, cfg.Parts)
		if err != nil {
			streak = 0 // broker unreachable; not a dead worker
			continue
		}
		if !(st.Seen && st.Connected == 0 && st.SnapshotSeq > 0 && st.Barrier == 0) {
			streak = 0
			continue
		}
		if streak++; streak < standbyConfirm {
			continue
		}
		// The partition had a worker, has none now, left a snapshot to
		// adopt, and no rebalance owns it: promote. Claim first so only
		// one standby proceeds; a lost claim just resumes watching.
		session := stream.NewSessionID()
		if err := stream.ClaimPartition(cfg.Addr, cfg.Part, cfg.Parts, session); err != nil {
			streak = 0
			continue
		}
		// A failed start (broker died, a state became unusable) is
		// surfaced; the claim expires on its own.
		s.w, s.err = start(cfg, session)
		return
	}
}

// Done closes when the watch has ended: the standby promoted (Worker
// returns it), failed to (Err), or was stopped.
func (s *Standby) Done() <-chan struct{} { return s.done }

// Worker returns the promoted worker, nil if the watch ended without
// promoting. Valid after Done closes.
func (s *Standby) Worker() *Worker { return s.w }

// Err returns the promotion error, if any. Valid after Done closes.
func (s *Standby) Err() error { return s.err }

// Stop ends the watch if it has not promoted yet and waits for the
// watch goroutine to exit. A worker already promoted is not touched.
func (s *Standby) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
