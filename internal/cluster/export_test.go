package cluster

// NewestCheckpoint reads the newest valid checkpoint in dir, the state
// a worker started on dir would restore (seq 0: none).
func NewestCheckpoint(dir string) (session string, seq uint64, err error) {
	st, err := (&store{dir: dir}).newest()
	if err != nil || st == nil {
		return "", 0, err
	}
	return st.Session, st.Snapshot.Seq, nil
}

// HandoffSeq returns the stamped sequence of the broker snapshot the
// worker adopted at start, 0 when it did not adopt one.
func (w *Worker) HandoffSeq() uint64 { return w.handoffSeq }

// OfferedSeq returns the highest snapshot sequence this worker has
// successfully offered to the broker (0: none yet).
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
