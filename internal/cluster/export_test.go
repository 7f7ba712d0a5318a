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
