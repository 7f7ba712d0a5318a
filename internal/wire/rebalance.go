// Codec for the live-rebalance cutover: the "rebal" frame a broker
// sends in-stream to every fenced partition subscriber once it has
// delivered everything at or below the rebalance barrier. The frame
// names the barrier (the last global sequence the old partition group
// owns), the old group size and the new one — enough for a worker to
// pin its final snapshot at the barrier and for an operator to know
// what shape to restart with. The surrounding prepare/commit control
// frames stay ordinary JSON control frames (internal/stream); only
// this frame rides the hot delivery path and gets a canonical codec.

package wire

import (
	"math"
	"strconv"
)

// Rebal is the in-stream rebalance announcement: partition group
// Parts is retired at sequence Barrier in favour of a group of NParts.
type Rebal struct {
	Barrier uint64
	Parts   int
	NParts  int
}

// Canonical rebal prefix.
//
//	{"t":"rebal","barrier":B,"parts":K,"nparts":N}
const rebalPrefix = `{"t":"rebal","barrier":`

// AppendRebal appends the canonical rebalance-announcement payload.
func AppendRebal(dst []byte, r Rebal) []byte {
	dst = append(dst, rebalPrefix...)
	dst = strconv.AppendUint(dst, r.Barrier, 10)
	dst = append(dst, `,"parts":`...)
	dst = strconv.AppendInt(dst, int64(r.Parts), 10)
	dst = append(dst, `,"nparts":`...)
	dst = strconv.AppendInt(dst, int64(r.NParts), 10)
	return append(dst, '}')
}

// ParseRebal decodes a canonical rebalance announcement. ok is false
// on any deviation from the canonical form or on semantic nonsense:
// only a real partition group (Parts ≥ 2) can be rebalanced, the new
// group must hold at least one partition, and a "rebalance" onto the
// same size is not a cutover.
func ParseRebal(payload []byte) (r Rebal, ok bool) {
	s := scanner{b: payload}
	if !s.lit(rebalPrefix) {
		return Rebal{}, false
	}
	barrier, bOK := s.uint()
	if !bOK || !s.lit(`,"parts":`) {
		return Rebal{}, false
	}
	parts, pOK := s.int(math.MaxInt64)
	if !pOK || !s.lit(`,"nparts":`) {
		return Rebal{}, false
	}
	nparts, nOK := s.int(math.MaxInt64)
	if !nOK || !s.lit(`}`) || s.i != len(payload) {
		return Rebal{}, false
	}
	if parts < 2 || nparts < 1 || parts == nparts {
		return Rebal{}, false
	}
	return Rebal{Barrier: barrier, Parts: int(parts), NParts: int(nparts)}, true
}
