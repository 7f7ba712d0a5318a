package stream

import "sybilwild/internal/osn"

// Recv is RecvBatch one event at a time, so a test can stop the
// client between two events of one frame: it blocks for the next
// event and advances LastSeq past exactly that event. It returns
// ErrClosed on clean end of feed; any other error means the
// connection died and the session may be resumed.
func (c *Client) Recv() (osn.Event, error) {
	for len(c.pending) == 0 { // a manual-ack cursor advance has no event
		if err := c.fill(); err != nil {
			return osn.Event{}, err
		}
	}
	ev := c.pending[0]
	c.pending = c.pending[1:]
	c.batchSeqs = nil
	if c.pendingSeqs != nil {
		c.lastSeq = c.pendingSeqs[0]
		c.pendingSeqs = c.pendingSeqs[1:]
		if len(c.pending) == 0 {
			// Frame drained: the cursor also covers the trailing
			// foreign events the frame skipped over.
			if c.frameLast > c.lastSeq {
				c.lastSeq = c.frameLast
			}
			c.pendingSeqs = nil
		}
		return ev, nil
	}
	c.lastSeq = c.firstSeq
	c.firstSeq++
	return ev, nil
}

// DialAdopt connects as a fresh subscriber adopting its partition key's
// state from, as a handoff worker's first hello does (DialKernel).
func DialAdopt(addr string, from uint64, opts ...DialOption) (*Client, error) {
	return dial(addr, frame{Session: NewSessionID(), Resume: from, Adopt: true}, opts)
}

// Reshaped returns the welcome's barrier: the newest committed cutover
// record into the subscription's group shape, 0 if none.
func (c *Client) Reshaped() uint64 { return c.reshaped }
