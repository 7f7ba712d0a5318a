package stream

// The control plane's decisions: who may judge which sequence. Five
// decisions make it up, and this file holds all of them:
//
//   - admit: the held snapshot, the rebalance cut, the fence, the
//     welcome's barrier and the key's new owner;
//   - offer: ownership, freshness and commit;
//   - prepare: shape checks, idempotence and conflicts;
//   - learn: the cutover record a relay hop adopts (install);
//   - reload: the notes and snapshots a spooled broker reads back.
//
// None of it touches a socket or the spool, and the plane takes no lock
// of its own: Server calls it under Server.mu and does the spool writes
// its answers call for (control.go), any of which that fails stops the
// broker. It keeps the cutovers as one list; the fence on a shape, a
// pending cut and whether a cut committed are all worked out from that
// list and the held snapshots, so no answer depends on the order in
// which commits happened to be recorded.

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"

	"sybilwild/internal/spool"
)

// plane is the broker's control-plane state.
type plane struct {
	log *feedLog
	// cuts holds every cutover the broker knows, in barrier order:
	// prepared here, learned from its record, or reloaded from its note.
	cuts  []cutover
	snaps map[partKey]spool.Snapshot // the freshest offer per key (payload immutable once held)
	// owners names the session admission last made each partitioned
	// key's owner; an offer naming another session, or for a key with
	// none, is refused.
	owners map[partKey]string
}

// cutover is one live rebalance: partition group `from` is cut at
// `barrier`, the sequence of its cutover record, in favour of a group
// of `to`.
type cutover struct {
	from, to int
	barrier  uint64
}

// committed reports, per cut, whether it committed: every key of its
// new shape holds a snapshot at or past its barrier, or a later cut out
// of that shape committed. The later cut dropped the shape's snapshots,
// and its new owners could only adopt them once they all sat at its own
// barrier, past this one.
func (p *plane) committed() []bool {
	done := make([]bool, len(p.cuts))
	for i := len(p.cuts) - 1; i >= 0; i-- {
		c := p.cuts[i]
		done[i] = true
		for k := 0; k < c.to; k++ {
			done[i] = done[i] && p.snaps[partKey{part: k, parts: c.to}].Seq >= c.barrier
		}
		for j := i + 1; j < len(p.cuts); j++ {
			done[i] = done[i] || done[j] && p.cuts[j].from == c.to
		}
	}
	return done
}

// shape works out group shape parts' standing from the cut list: the
// fence on it, the newest cut out of it unless a newer committed cut
// back into it lifts it (nil: the shape admits); the pending cut into
// it, the newest one if it has not committed; and reshaped, the barrier
// of the newest committed cut into it (0 if there is none). A record out
// of the shape at or below reshaped retired an earlier generation of
// it; one past it, while a cut into the shape is still pending, retires
// the generation that cut is replacing.
func (p *plane) shape(parts int) (fence, pending *cutover, reshaped uint64) {
	done, lifted, into := p.committed(), false, false
	for i := len(p.cuts) - 1; i >= 0; i-- {
		c := &p.cuts[i]
		switch {
		case c.to == parts && !into && !done[i]:
			pending = c
		case c.to == parts && done[i]:
			reshaped, lifted = max(reshaped, c.barrier), true
		case c.from == parts && !lifted:
			fence, lifted = c, true
		}
		into = into || c.to == parts
	}
	return fence, pending, reshaped
}

// admit checks the hello's partition against the control plane (gate),
// then opens its reader on the log, which applies the resume rule and
// refuses a key another connected session holds. An admitted session
// becomes its partitioned key's owner, whose offers alone the key then
// takes. admit returns the reader, the connection generation, the
// welcome's admission fields — From, the first sequence the writer will
// send, and Barrier, the newest committed cutover into the hello's
// shape (reshaped) — and the adopted snapshots, or the refusal.
func (p *plane) admit(hello frame, conn io.Closer) (r *reader, gen int, welcome frame, snaps []spool.Snapshot, reject *frame) {
	// Normalize the partition request: a group of one is the full
	// feed, served on the cheaper contiguous path.
	if hello.Parts == 1 {
		hello.Part, hello.Parts = 0, 0
	}
	if hello.Parts < 0 || hello.Part < 0 || (hello.Parts > 0 && hello.Part >= hello.Parts) {
		return nil, 0, frame{}, nil, refusal("", "invalid partition")
	}
	resume, snaps, reject := p.gate(hello)
	if reject != nil {
		return nil, 0, frame{}, nil, reject
	}
	want := &reader{id: hello.Session, part: hello.Part, parts: hello.Parts, relay: hello.Relay}
	r, gen, welcome.From, reject = p.log.open(want, resume, conn)
	_, _, welcome.Barrier = p.shape(max(hello.Parts, 1))
	if reject == nil && hello.Parts >= 2 {
		p.owners[partKey{part: hello.Part, parts: hello.Parts}] = hello.Session
	}
	return r, gen, welcome, snaps, reject
}

// gate is admission's decision before the log: where a normalized hello
// resumes and what it adopts, or why it is refused. An adopting hello
// resumes from its key's held snapshot (the whole feed's key is 0/1);
// with none held, the hello's own resume applies. On a group shape a
// pending rebalance is cutting over to, an adopting hello whose key
// holds nothing at or past the barrier is handed the old group's cut
// instead and resumes after the barrier, or is refused as cut-pending
// until every old snapshot is there. A fence on the hello's own group
// shape admits only a resume at or below its barrier, one that will
// reach the cutover record, unless the shape is being cut over to
// again, after that record, and the resume is past that cut; anything
// else is refused as rebalanced, the reply naming the cutover.
func (p *plane) gate(hello frame) (resume uint64, snaps []spool.Snapshot, reject *frame) {
	resume = hello.Resume
	held, ok := p.snaps[partKey{part: hello.Part, parts: max(hello.Parts, 1)}]
	f, pend, _ := p.shape(max(hello.Parts, 1))
	switch {
	case !hello.Adopt:
	case pend != nil && held.Seq < pend.barrier:
		snaps = make([]spool.Snapshot, pend.from)
		at := 0
		for k := range snaps {
			if snaps[k] = p.snaps[partKey{part: k, parts: pend.from}]; snaps[k].Seq == pend.barrier {
				at++
			}
		}
		if at < pend.from {
			return 0, nil, refusal(classCutPending, fmt.Sprintf("rebalance cut pending: %d of partition group %d's snapshots at barrier %d", at, pend.from, pend.barrier))
		}
		resume = pend.barrier + 1
	case ok && held.Seq > 0:
		snaps, resume = []spool.Snapshot{held}, held.Seq+1
	}
	if f != nil && (pend == nil || pend.barrier < f.barrier || resume <= pend.barrier) && (resume == 0 || resume > f.barrier) {
		// The group shape was rebalanced away. A fresh join or a resume
		// past the record would double-judge post-barrier events against
		// the new owners; one at or below it judges up to the record and
		// retires there like the rest of its group.
		reject = refusal(classRebalanced, (&RebalancedError{From: f.from, To: f.to, Barrier: f.barrier}).Error())
		reject.Parts, reject.NParts, reject.Barrier = f.from, f.to, f.barrier
		return 0, nil, reject
	}
	return resume, snaps, nil
}

// offerRefusal is the reason an offer is refused, "" if it is not: an
// offer for a partitioned key must name the session admission last made
// the key's owner. So a dead worker's late offer cannot overwrite the
// state its successor adopted, and nobody offers for a group shape a
// committed rebalance retired: its owners went with its snapshots.
func (p *plane) offerRefusal(req frame) string {
	if req.Parts < 2 {
		return ""
	}
	switch owner, ok := p.owners[partKey{part: req.Part, parts: req.Parts}]; {
	case !ok:
		return fmt.Sprintf("no session owns partition %d/%d (none was admitted, or a rebalance retired the group)", req.Part, req.Parts)
	case req.Session != owner:
		return fmt.Sprintf("session %q does not own partition %d/%d", req.Session, req.Part, req.Parts)
	}
	return ""
}

// offer takes an offer whose payload the spool, if any, already holds:
// it is refused unless its session still owns the key (ownership may
// have moved since the caller's first check), and held unless the held
// snapshot is fresher — an equal sequence replaces (an idempotent
// re-offer), an older one is confirmed and dropped, so a lagging worker
// cannot regress the store. The offer that leaves every key of a
// pending rebalance's new shape holding one at or past the barrier
// commits it, which forgets the old shape's snapshots and owners.
// retired names the group shape whose spool files the caller drops, 0
// if none: the retired shape on a commit, or the offer's own shape when
// a commit retired it while the payload was written.
func (p *plane) offer(req frame, payload []byte) (retired int, why string) {
	k := partKey{part: req.Part, parts: req.Parts}
	if why = p.offerRefusal(req); why != "" {
		if _, owned := p.owners[k]; !owned {
			return req.Parts, why
		}
		return 0, why
	}
	_, pend, _ := p.shape(req.Parts)
	if held, ok := p.snaps[k]; !ok || held.Seq <= req.Seq {
		p.snaps[k] = spool.Snapshot{Part: req.Part, Parts: req.Parts, Seq: req.Seq, Data: payload}
	}
	if _, still, _ := p.shape(req.Parts); pend == nil || still != nil {
		return 0, ""
	}
	maps.DeleteFunc(p.snaps, func(k partKey, _ spool.Snapshot) bool { return k.parts == pend.from })
	maps.DeleteFunc(p.owners, func(k partKey, _ string) bool { return k.parts == pend.from })
	return pend.from, ""
}

// prepare cuts group shape from over to to: it reserves one sequence B
// and installs the cutover with it, so two prepares never reserve two
// records, and fresh reports that the caller must publish the record at
// B. Idempotent: re-preparing the same from→to returns the cut already
// chosen; a conflicting from→to' is refused, and so is a second
// rebalance into a shape one is already cutting over to. A relay hop
// has no sequencer of its own and refuses.
func (p *plane) prepare(from, to int) (c cutover, fresh bool, why string) {
	switch {
	case from < 2 || to < 1 || from == to:
		return c, false, "invalid rebalance shape"
	case p.log.opt.adopting:
		return c, false, "broker is a relay hop: prepare the rebalance at the root broker"
	}
	f, _, _ := p.shape(from)
	_, g, _ := p.shape(to)
	switch {
	case f != nil && f.to != to:
		return c, false, fmt.Sprintf("partition group %d already rebalancing to %d", from, f.to)
	case g != nil && (f == nil || *g != *f):
		return c, false, fmt.Sprintf("partition group %d already rebalancing to %d", g.from, g.to)
	case f != nil:
		return *f, false, ""
	}
	b, err := p.log.reserve(1, 0)
	if err != nil {
		return c, false, err.Error()
	}
	return p.install(from, to, b), true, ""
}

// install holds the cutover of group shape from to a group of to whose
// record is at barrier: a prepare's, a reloaded note's, or a record's a
// relay hop adopts (learn, see Server.learnCutover). A cut out of from
// at or past barrier already covers the record.
func (p *plane) install(from, to int, barrier uint64) cutover {
	for i := len(p.cuts) - 1; i >= 0; i-- {
		if c := p.cuts[i]; c.from == from && c.barrier >= barrier {
			return c
		}
	}
	c := cutover{from: from, to: to, barrier: barrier}
	p.cuts = append(p.cuts, c)
	return c
}

// reload holds again what a spooled broker kept beside its log: the
// freshest snapshot per key and every noted cutover, in barrier order.
// Commits need no reload of their own: they are worked out from both.
func (p *plane) reload(notes []spool.Cutover, snaps []spool.Snapshot) {
	for _, sn := range snaps {
		p.snaps[partKey{part: sn.Part, parts: sn.Parts}] = sn
	}
	for _, c := range notes {
		p.install(c.From, c.To, c.Barrier)
	}
}

// stats lists the held snapshots, sorted by (parts, part), and the
// rebalance audit.
func (p *plane) stats() ([]spool.Snapshot, []RebalanceStats) {
	snaps := make([]spool.Snapshot, 0, len(p.snaps))
	for _, v := range p.snaps {
		snaps = append(snaps, v)
	}
	slices.SortFunc(snaps, func(a, b spool.Snapshot) int {
		return cmp.Or(cmp.Compare(a.Parts, b.Parts), cmp.Compare(a.Part, b.Part))
	})
	done := p.committed()
	reb := make([]RebalanceStats, len(p.cuts))
	for i, c := range p.cuts {
		reb[i] = RebalanceStats{From: c.from, To: c.to, Barrier: c.barrier, Committed: done[i]}
	}
	return snaps, reb
}
