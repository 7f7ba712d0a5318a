package stream

// The worker kernel: every decision a subscribing detector worker makes
// about which sequences it judges. It picks each hello (adopt, resume by
// session, from a sequence, or fresh), reads every refusal's class in
// the worker's phase, trims each batch to what the worker's state has
// not yet applied and cuts it at the record that retires the worker,
// and decides when the state is offered to the broker and where a lost
// connection resumes. Like the plane it opens no socket, reads no clock
// and takes no lock: cluster.Worker does the I/O around it, and the
// control-plane explorer drives the same kernel against the plane.

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"sybilwild/internal/osn"
)

// Kernel is one worker's judging rules and the cursors they read. Set
// the exported fields, then dial with DialKernel. A Kernel is not safe
// for concurrent use.
type Kernel struct {
	Part, Parts int           // the worker's key; Parts ≤ 1 is the whole feed
	Handoff     bool          // adopt the key's held state, offer it, and ack only through confirmed offers
	FromStart   bool          // a start with no state backfills from sequence 1
	Every       time.Duration // the save interval

	session  string // the admitted session ("": not admitted yet)
	resume   uint64 // where an admitted worker's next hello resumes
	cold     bool   // the key's held snapshot is past the feed: start without it
	spare    bool   // not admitted, and last refused because another session holds the key
	reshaped uint64 // the welcome's barrier: the newest committed cutover into the shape

	applied  uint64    // the state covers the feed through here
	durable  uint64    // the newest state the broker holds: the adopted one, or a confirmed offer
	cut      bool      // the adopted state is a re-keyed rebalance cut, not offered yet
	lastSave time.Time // when the last save was tried, or the worker admitted
	barrier  uint64    // the cutover record that retired the worker (0: none)
	nparts   int       // and the group shape it cut over to
}

// hello is the kernel's next hello: a resume of its own session once
// admitted, else a fresh session (the dialer names it) adopting the
// key's held state (Handoff, until that state proves past the feed),
// starting at sequence 1 (FromStart) or at the live head.
func (k *Kernel) hello() frame {
	if k.session != "" {
		return frame{Session: k.session, Resume: k.resume}
	}
	h := frame{Adopt: k.Handoff && !k.cold}
	if k.FromStart {
		h.Resume = 1
	}
	return h
}

// admitted takes the welcome of session: the first sequence it is sent
// (from), the welcome's barrier, and the adopted snapshots (their
// sequence and count). The save interval restarts at now.
func (k *Kernel) admitted(session string, from, barrier, seq uint64, snaps int, now time.Time) {
	k.session, k.spare, k.reshaped = session, false, barrier
	if snaps > 0 {
		k.durable, k.cut = seq, snaps > 1
	}
	k.applied, k.lastSave = max(k.applied, from-1), now
}

// Refused is the refusal table: what the refusal err of the kernel's
// last hello means in the worker's phase. wait is set when the broker
// answered and the worker dials again after a poll, end when nothing is
// left to dial for; neither means retry with backoff (a failed dial, or
// a broker closing under a worker that is not a spare: a kill and a
// restart look the same from here).
//
//	refusal      starting                 spare        admitted
//	held         wait (a spare now)       wait         end: another worker adopted the state
//	cut-pending  wait                     wait         retry
//	gap          adopting: start cold     as starting  end: the feed lost the range
//	             else end
//	rebalanced   end                      end          end
//	closing      retry                    end          retry
//
// A worker waiting on a cut is the key's only designated owner, so a
// closing broker is retried as a failed dial; a spare was never
// admitted and holds nothing, and the key's owner judged the feed.
func (k *Kernel) Refused(err error) (wait bool, end error) {
	starting, held, gap := k.session == "", errors.Is(err, ErrHeld), errors.Is(err, ErrGap)
	switch {
	case starting && (held || errors.Is(err, ErrCutPending)):
		k.spare = held
		return true, nil
	case held:
		return false, fmt.Errorf("stream: partition %d/%d is owned by another worker, which adopted its state: %w", k.Part, max(k.Parts, 1), err)
	case errors.Is(err, ErrRebalanced):
		return false, err
	case gap && starting && k.Handoff && !k.cold:
		k.cold, k.spare = true, false
		return true, nil
	case gap:
		return false, fmt.Errorf("stream: the feed cannot serve seq %d (history pruned, or the spool failed; a restart adopts a resumable snapshot or starts cold): %w", k.hello().Resume, err)
	case errors.Is(err, ErrClosing) && k.spare:
		return false, fmt.Errorf("stream: partition %d/%d: the broker closed the feed while this worker waited (%v): %w", k.Part, max(k.Parts, 1), err, ErrClosed)
	}
	return false, nil
}

// Batch takes the batch c's RecvBatch returned (see batch).
func (k *Kernel) Batch(c *Client, evs []osn.Event) (drop, n int, ok bool) {
	drop, n, ok = k.batch(evs, c.batchSeqs, c.lastSeq)
	c.manualAck = k.manual() // a retired worker acks nothing past the record
	return drop, n, ok
}

// batch decides which of a batch's events the state applies: evs[drop:n],
// with the state then at Applied. seqs are the events' sequences, nil
// for a contiguous batch ending at last, the client's cursor. A
// replayed prefix at or below Applied is skipped (counters are not
// idempotent), and the batch ends at the cutover record out of the
// worker's shape past the welcome's barrier, which retires the worker
// (Retired). A record at or below the barrier retired an earlier
// generation of the shape, before the rebalance back into it. ok is
// false for a batch wholly at or below Applied: nothing to apply.
func (k *Kernel) batch(evs []osn.Event, seqs []uint64, last uint64) (drop, n int, ok bool) {
	if last <= k.applied || k.barrier > 0 {
		return 0, 0, false
	}
	n = len(evs)
	seqAt := func(i int) uint64 {
		if seqs != nil {
			return seqs[i]
		}
		return last - uint64(n-1-i)
	}
	for drop < n && seqAt(drop) <= k.applied {
		drop++
	}
	for i := drop; i < n; i++ {
		if ev := evs[i]; ev.Type == osn.EvCutover && int(ev.Actor) == k.Parts && seqAt(i) > k.reshaped {
			k.barrier, k.nparts = seqAt(i), int(ev.Target)
			n, last = i+1, k.barrier
		}
	}
	k.applied = last
	return drop, n, true
}

// Applied is the sequence the worker's state covers the feed through.
func (k *Kernel) Applied() uint64 { return k.applied }

// Retired reports whether a cutover record retired the worker, and if
// so its barrier and the group shape it cut over to.
func (k *Kernel) Retired() (barrier uint64, nparts int, ok bool) {
	return k.barrier, k.nparts, k.barrier > 0
}

// Cut reports whether the adopted state is a re-keyed rebalance cut
// not offered yet. Its owner offers it at once: the broker commits the
// rebalance once every new key has.
func (k *Kernel) Cut() bool { return k.cut }

// Due reports whether a save is due at now, after a batch: with
// Handoff, once Every has passed since the last save was tried. No
// broker waits on the worker's acks, so nothing else forces an offer.
func (k *Kernel) Due(now time.Time) bool {
	return k.Handoff && now.Sub(k.lastSave) >= k.Every
}

// Save notes a save tried at now and reports whether it offers the
// state at Applied: with Handoff, or at the retirement record, whose
// state the new group adopts. Nothing applied is nothing worth
// adopting.
func (k *Kernel) Save(now time.Time) bool {
	k.lastSave, k.cut = now, false
	return k.offers()
}

func (k *Kernel) offers() bool { return (k.Handoff || k.barrier > 0) && k.applied > 0 }

// Offered records that the broker confirmed an offer at seq. The feed
// is acked through it: with Handoff, and past a retirement record, the
// worker acks nothing else (manual).
func (k *Kernel) Offered(seq uint64) { k.durable = max(k.durable, seq) }

// manual reports whether the worker's acks move only at confirmed
// offers; otherwise it acks whatever it receives.
func (k *Kernel) manual() bool { return k.Handoff || k.barrier > 0 }

// Lost notes a lost connection whose client ended at cursor. The next
// hello resumes the session at the newest state the broker holds, or
// past cursor when it holds none: a resume acks everything below its
// start, so it never starts past the state a successor would adopt.
// Batch skips what the resume replays.
func (k *Kernel) Lost(cursor uint64) { k.resume = cmp.Or(k.durable, cursor) + 1 }
