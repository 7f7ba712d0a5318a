// Codec for the live-rebalance cutover: the "rebal" frame a broker
// sends in-stream to every fenced partition subscriber once it has
// delivered everything at or below the rebalance barrier. The frame
// names the barrier (the last global sequence the old partition group
// owns), the old group size and the new one — enough for a worker to
// pin its final snapshot at the barrier and for an operator to know
// what shape to restart with. It is a JSON control frame like the
// prepare/commit exchanges around it (internal/stream), and clients
// read it with encoding/json.

package wire

import "strconv"

// Rebal is the in-stream rebalance announcement: partition group
// Parts is retired at sequence Barrier in favour of a group of NParts.
type Rebal struct {
	Barrier uint64
	Parts   int
	NParts  int
}

// AppendRebal appends the rebalance announcement:
//
//	{"t":"rebal","barrier":B,"parts":K,"nparts":N}
func AppendRebal(dst []byte, r Rebal) []byte {
	dst = append(dst, `{"t":"rebal","barrier":`...)
	dst = strconv.AppendUint(dst, r.Barrier, 10)
	dst = append(dst, `,"parts":`...)
	dst = strconv.AppendInt(dst, int64(r.Parts), 10)
	dst = append(dst, `,"nparts":`...)
	dst = strconv.AppendInt(dst, int64(r.NParts), 10)
	return append(dst, '}')
}
