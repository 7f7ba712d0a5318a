package features

import (
	"fmt"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// This file is the durable half of the streaming tracker: counters in,
// counters out, losslessly. A Tracker's entire state is the per-account
// counter set, so Export/Import is a complete checkpoint of the §2.2
// feature extraction — the detector's Pipeline snapshots lean on it.

// AccountState is one account's raw behavioural counters in
// serializable form. It carries exactly the fields a Tracker
// accumulates, so Export → Import reproduces every future VectorOf
// result bit for bit.
type AccountState struct {
	ID          osn.AccountID `json:"id"`
	OutSent     int           `json:"out_sent,omitempty"`
	OutAccepted int           `json:"out_accepted,omitempty"`
	InReceived  int           `json:"in_received,omitempty"`
	InAccepted  int           `json:"in_accepted,omitempty"`
	FirstSent   sim.Time      `json:"first_sent,omitempty"`
	LastSent    sim.Time      `json:"last_sent,omitempty"`
}

// Export serializes every tracked account's counters in account-ID
// order — the slab's own order — so the output is deterministic
// (checkpoint files diff cleanly run to run).
func (t *Tracker) Export() []AccountState {
	out := make([]AccountState, 0, t.tracked)
	t.acct.Each(func(id int, c *counters) {
		if !c.tracked {
			return
		}
		out = append(out, AccountState{
			ID:          osn.AccountID(id),
			OutSent:     c.outSent,
			OutAccepted: c.outAccepted,
			InReceived:  c.inReceived,
			InAccepted:  c.inAccepted,
			FirstSent:   c.firstSent,
			LastSent:    c.lastSent,
		})
	})
	return out
}

// Import folds exported account states into the tracker. Importing
// into a fresh tracker reproduces the exporting tracker exactly;
// importing an account that is already tracked is a checkpoint
// inconsistency and returns an error (counters are absolute values,
// not deltas, so merging them would double-count), as is a negative
// account ID.
func (t *Tracker) Import(states []AccountState) error {
	for _, st := range states {
		if st.ID < 0 {
			return fmt.Errorf("features: import: negative account id %d", st.ID)
		}
		c := t.acct.At(int(st.ID))
		if c.tracked {
			return fmt.Errorf("features: import: account %d already tracked", st.ID)
		}
		*c = counters{
			tracked:     true,
			outSent:     st.OutSent,
			outAccepted: st.OutAccepted,
			inReceived:  st.InReceived,
			inAccepted:  st.InAccepted,
			firstSent:   st.FirstSent,
			lastSent:    st.LastSent,
		}
		t.tracked++
	}
	return nil
}
