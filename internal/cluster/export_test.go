package cluster

// HandoffSeq returns the stamped sequence of the broker snapshot the
// worker adopted at start, 0 when it did not adopt one.
func (w *Worker) HandoffSeq() uint64 { return w.handoffSeq }

// OfferedSeq returns the highest snapshot sequence the broker has
// confirmed for this worker (0: none yet); unlike Stats, safe while
// the worker runs.
func (w *Worker) OfferedSeq() uint64 { return w.offered.Load() }

// FirstApplied returns the lowest global feed sequence the worker has
// ingested, 0 when nothing has been applied yet. After a handoff it
// must exceed HandoffSeq — the zero-replay property: no event at or
// below the snapshot's cut is ever re-applied.
func (w *Worker) FirstApplied() uint64 { return w.firstApplied.Load() }

// OwnedSeqs returns the global sequences of every owned-actor event
// this worker applied, in feed order — the per-event owner audit a
// cutover verification sums across workers and generations. Requires
// Config.Audit; valid after Wait.
func (w *Worker) OwnedSeqs() []uint64 { return w.ownedSeqs }
