package stream

// Relay is the interior node of a broker tree: it subscribes to an
// upstream broker as an ordinary resumable session and feeds its own
// Server in sequence-adopting mode (AdoptFrame), so the frame bytes the
// upstream encoded once are spooled and fanned out here without a
// single re-encode or event-level copy. A 2-level tree — one root
// broker, E edge relays, S subscribers each — serves E×S consumers
// while the root pays for E sessions and each edge pays for S, which is
// what makes fan-out at 100+ subscribers flat instead of linear in one
// broker's write loop.
//
// Upstream, the relay is an ordinary manual-ack Client run by the
// subscriber lifecycle SubscribeBatch runs too, on every broker
// client's redial loop (Redial) with a whole-feed Kernel's refusal
// table: it resumes from its own spool head across restarts of either
// endpoint (an error wrapping ErrGap is terminal — the upstream pruned
// below our head and the gap cannot be hidden — and so are an upstream
// frame that does not decode and a failed write that stopped the hop's
// own broker), and on upstream eof it drains and closes its own server,
// propagating the eof down the tree. A terminal failure severs the
// downstream subscribers instead, so none of them mistakes a broken
// feed for a finished one. On the downstream side it
// is just a Server: resumable sessions, partitioned fbatch
// subscriptions, and snapshot rendezvous are all served at the edge.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// relayAckEvery bounds how many adopted events may go unacknowledged
// while the upstream keeps the relay busy: the pump acks whenever its
// read buffer drains, and at least once per this many events so a
// firehose upstream still releases its tail.
const relayAckEvery = 1024

// relayConfig collects RelayOption settings.
type relayConfig struct {
	srvOpts    []ServerOption
	maxRetries int
}

// RelayOption configures NewRelay.
type RelayOption func(*relayConfig)

// WithRelayServer passes server options through to the relay's
// downstream broker — spool, tail size, linger, batch sizing all apply
// exactly as on a standalone Server.
func WithRelayServer(opts ...ServerOption) RelayOption {
	return func(c *relayConfig) { c.srvOpts = append(c.srvOpts, opts...) }
}

// withRelayRetries bounds consecutive upstream dial failures before
// the relay gives up (default 8: it gives up after 9 failed dials, on
// the redial loop's backoff, Redial). Failures reset on any successful
// handshake.
func withRelayRetries(n int) RelayOption {
	return func(c *relayConfig) { c.maxRetries = n }
}

// RelayStats is a point-in-time snapshot of one relay hop, the
// substance of the per-hop audit line.
type RelayStats struct {
	Upstream   string // upstream broker address
	Hop        int    // tree depth of this relay's server (root = 0)
	Seq        uint64 // highest adopted global sequence (== downstream head)
	Frames     uint64 // upstream frames adopted
	Events     uint64 // upstream events adopted
	Reconnects uint64 // upstream reconnects survived
}

// Relay chains this process's broker onto an upstream one. Create with
// NewRelay; stop with Close (drain downstream, like a clean shutdown)
// or Abort (kill -9 double). Wait blocks until the upstream feed ends
// or the relay fails terminally.
type Relay struct {
	srv      *Server
	upstream string
	retries  int
	// k is the upstream session's kernel: a whole-feed one that holds
	// the relay's session from the start, since every hello of the relay
	// resumes it at the local head + 1. Only the run goroutine uses it.
	k Kernel

	mu     sync.Mutex
	conn   net.Conn // current upstream connection, severed by Close/Abort
	closed bool

	quit chan struct{} // closed once, wakes the backoff sleep
	done chan struct{} // closed when the run loop exits

	frames     atomic.Uint64
	events     atomic.Uint64
	reconnects atomic.Uint64

	err error // the terminal error, set by run before done closes
}

// NewRelay starts a broker on addr that mirrors the feed served at
// upstream. Like every broker it spools — on the WithSpool of its
// WithRelayServer options, else privately (NewServer). The local server
// comes up immediately — downstream subscribers can connect and
// backfill what the spool holds before the upstream link is even
// established — and the upstream subscription resumes from the local
// head: an empty spool asks for sequence 1 (full backfill), a relay
// restarted on its spool asks for exactly the first frame it is
// missing.
func NewRelay(addr, upstream string, opts ...RelayOption) (*Relay, error) {
	cfg := relayConfig{maxRetries: 8}
	for _, fn := range opts {
		fn(&cfg)
	}
	// NewServer already seats the sequencer at the spool's end, so a
	// relay restarting mid-feed on its spool resumes at exactly the first
	// frame it is missing — no relay-specific recovery step needed.
	srv, err := NewServer(addr, append(cfg.srvOpts, withAdopting())...)
	if err != nil {
		return nil, err
	}
	r := &Relay{
		srv:      srv,
		upstream: upstream,
		k:        Kernel{session: newSessionID()},
		retries:  cfg.maxRetries,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// Server returns the relay's downstream broker, for stats and
// snapshot-rendezvous wiring. Lifecycle (Close/Abort) belongs to the
// Relay — don't close the server directly.
func (r *Relay) Server() *Server { return r.srv }

// Addr returns the downstream listen address.
func (r *Relay) Addr() string { return r.srv.Addr() }

// Stats snapshots the relay's upstream-side counters.
func (r *Relay) Stats() RelayStats {
	return RelayStats{
		Upstream:   r.upstream,
		Hop:        int(r.srv.hop.Load()),
		Seq:        r.srv.HeadSeq(),
		Frames:     r.frames.Load(),
		Events:     r.events.Load(),
		Reconnects: r.reconnects.Load(),
	}
}

// Wait blocks until the relay stops on its own: nil after upstream eof
// has been propagated downstream, an error wrapping ErrGap when the
// upstream pruned past our resume point, an error wrapping ErrBadFrame
// when the upstream sent a frame that does not decode, the failure
// that stopped the hop's own broker (ServerStats.SpoolErr: a write to
// its spool, or a cutover note, failed), or the last dial error when
// reconnection attempts are exhausted. Close and Abort also unblock
// it.
func (r *Relay) Wait() error {
	<-r.done
	return r.err
}

// Close stops the relay cleanly: the upstream link is severed, then
// the downstream server drains every subscriber's window and sends
// eof, exactly like Close on a standalone broker.
func (r *Relay) Close() error {
	r.shutdown()
	<-r.done
	return r.srv.Close()
}

// Abort is the kill -9 double, matching Server.Abort: upstream link
// and every downstream connection severed without drain or eof, spool
// left as a crash would. A replacement relay opened on the same spool
// directory resumes where this one died.
func (r *Relay) Abort() {
	r.shutdown()
	r.srv.Abort()
	<-r.done
}

func (r *Relay) shutdown() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.quit)
	}
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
}

// run is the upstream loop: the subscriber lifecycle SubscribeBatch
// runs too (follow), with open resuming from the local head and pump
// adopting frames. It exits on upstream eof (propagated downstream via
// Close), a terminal error (ErrGap, an undecodable frame, the hop's
// own broker stopping, exhausted retries), or Close/Abort.
func (r *Relay) run() {
	defer close(r.done)
	err := follow(&r.k, r.open, r.pump, r.retries, r.quit)
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return // Close or Abort owns the downstream server's end
	}
	if err == nil {
		// Upstream feed complete: drain our own subscribers and send
		// them eof — the propagation step that walks the tree.
		err = r.srv.Close()
	}
	if err != nil {
		// A terminal failure aborts the downstream server rather than
		// closing it: its subscribers see a lost connection, not an eof
		// that would claim the feed complete.
		r.err = err
		r.srv.Abort()
	}
}

// open subscribes upstream as an ordinary manual-ack Client: the
// kernel's hello, with Relay set and Resume at the local head + 1, so
// the upstream either replays what this hop is missing (from its tail
// or its spool) or refuses with the gap error, which names that
// sequence (Kernel.Refused). The welcome's Hop tells the relay its
// depth; the downstream server advertises hop+1 in its own welcomes.
// The connection is registered before the hello goes out, so Close and
// Abort can cut a handshake the upstream never answers.
func (r *Relay) open() (*Client, error) {
	r.k.Lost(r.srv.HeadSeq()) // the hello resumes at the local head + 1
	conn, err := dialBroker(r.upstream)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return nil, errors.New("stream: relay closed")
	}
	r.conn = conn
	r.mu.Unlock()
	hello := r.k.hello()
	hello.T, hello.V, hello.Relay = frameHello, ProtocolVersion, true
	c, err := subscribe(conn, hello)
	if err != nil {
		return nil, err
	}
	// The server's hop is 0 until the first handshake sets it.
	if r.srv.hop.Swap(int32(c.hop+1)) > 0 {
		r.reconnects.Add(1)
	}
	c.SetManualAck(true)
	return c, nil
}

// pump adopts upstream frames until eof, connection loss, or a frame
// that does not decode (an error wrapping ErrBadFrame: reconnecting
// would only replay it). Each frame is read into a fresh buffer, which
// AdoptFrame retains by reference as the shared chunk. The client's
// cursor follows the local head, and acks ride on idle moments (empty
// read buffer), at least every relayAckEvery events, and through the
// head at eof, keeping the upstream window trimmed without an ack per
// frame.
func (r *Relay) pump(c *Client) error {
	for {
		payload, err := c.next(nil)
		if errors.Is(err, ErrClosed) {
			c.Ack(c.lastSeq) // retire everything delivered before hanging up
		}
		if err != nil {
			return err
		}
		n, err := r.srv.AdoptFrame(payload)
		if err != nil {
			// ErrAdoptGap — the resumed stream skipped frames, which only a
			// broken upstream produces — reconnects and re-resumes; a frame
			// that does not decode (ErrBadFrame) ends the relay, and so does
			// the failure that stopped its own broker (errStopped).
			return err
		}
		r.frames.Add(1)
		r.events.Add(uint64(n))
		c.lastSeq = r.srv.HeadSeq()
		if c.lastSeq-c.acked >= relayAckEvery || c.br.Buffered() == 0 {
			c.Ack(c.lastSeq)
		}
	}
}
