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
// The relay owns the full subscriber lifecycle on its upstream side:
// it resumes from its own spool head across restarts of either
// endpoint (reconnect with exponential backoff; an error wrapping
// ErrGap is terminal — the upstream pruned below our head and the gap
// cannot be hidden — and so is an upstream frame that does not decode),
// and on upstream eof it drains and closes its own server, propagating
// the eof down the tree. A terminal failure severs the downstream
// subscribers instead, so none of them mistakes a broken feed for a
// finished one. On the downstream side it is just a Server: resumable
// sessions, partitioned fbatch subscriptions, and snapshot rendezvous
// are all served at the edge.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sybilwild/internal/wire"
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
// downstream broker — spool, window, linger, batch sizing all apply
// exactly as on a standalone Server.
func WithRelayServer(opts ...ServerOption) RelayOption {
	return func(c *relayConfig) { c.srvOpts = append(c.srvOpts, opts...) }
}

// withRelayRetries bounds consecutive upstream dial failures before
// the relay gives up (default 8; backoff doubles 50ms → 2s between
// attempts). Failures reset on any successful handshake.
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
	session  string
	retries  int

	mu     sync.Mutex
	conn   net.Conn // current upstream connection, severed by Close/Abort
	closed bool
	abort  bool

	quit chan struct{} // closed once, wakes the backoff sleep
	done chan struct{} // closed when the run loop exits

	frames     atomic.Uint64
	events     atomic.Uint64
	reconnects atomic.Uint64

	errMu sync.Mutex
	err   error
}

// NewRelay starts a broker on addr that mirrors the feed served at
// upstream. The local server comes up immediately — downstream
// subscribers can connect and (if the relay has a spool) backfill
// before the upstream link is even established — and the upstream
// subscription resumes from the local head: an empty spool asks for
// sequence 1 (full backfill), a restarted relay asks for exactly the
// first frame it is missing.
func NewRelay(addr, upstream string, opts ...RelayOption) (*Relay, error) {
	cfg := relayConfig{maxRetries: 8}
	for _, fn := range opts {
		fn(&cfg)
	}
	// NewServer already seats the sequencer at the spool's end, so a
	// spooled relay restarting mid-feed resumes at exactly the first
	// frame it is missing — no relay-specific recovery step needed.
	srv, err := NewServer(addr, append(cfg.srvOpts, withAdopting())...)
	if err != nil {
		return nil, err
	}
	r := &Relay{
		srv:      srv,
		upstream: upstream,
		session:  NewSessionID(),
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
// when the upstream sent a frame that does not decode, or the last dial
// error when reconnection attempts are exhausted. Close and Abort also
// unblock it.
func (r *Relay) Wait() error {
	<-r.done
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// Close stops the relay cleanly: the upstream link is severed, then
// the downstream server drains every subscriber's window and sends
// eof, exactly like Close on a standalone broker.
func (r *Relay) Close() error {
	r.shutdown(false)
	<-r.done
	return r.srv.Close()
}

// Abort is the kill -9 double, matching Server.Abort: upstream link
// and every downstream connection severed without drain or eof, spool
// left as a crash would. A replacement relay opened on the same spool
// directory resumes where this one died.
func (r *Relay) Abort() {
	r.shutdown(true)
	r.srv.Abort()
	<-r.done
}

func (r *Relay) shutdown(abort bool) {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.abort = abort
		close(r.quit)
	}
	if abort {
		r.abort = true
	}
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
}

func (r *Relay) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// fail ends the relay with a terminal error. The downstream server is
// aborted, not closed: its subscribers see a lost connection rather
// than an eof that would claim the feed complete.
func (r *Relay) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.srv.Abort()
}

// run is the upstream loop: dial (with resume from the local head),
// pump frames into AdoptFrame, reconnect on connection loss. It exits
// on upstream eof (propagated downstream via Close), a terminal error
// (ErrGap, an undecodable frame, exhausted retries), or Close/Abort.
func (r *Relay) run() {
	defer close(r.done)
	backoff := 50 * time.Millisecond
	fails := 0
	for {
		if r.isClosed() {
			return
		}
		conn, br, err := r.dialUpstream()
		if err != nil {
			if r.isClosed() {
				return
			}
			if errors.Is(err, ErrGap) {
				// The upstream no longer holds our next sequence; no
				// amount of retrying recovers the lost range. Loud and
				// terminal, per the delivery contract.
				r.fail(err)
				return
			}
			fails++
			if fails > r.retries {
				r.fail(err)
				return
			}
			select {
			case <-time.After(backoff):
			case <-r.quit:
				return
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		fails = 0
		backoff = 50 * time.Millisecond

		eof, err := r.pump(conn, br)
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
		conn.Close()
		switch {
		case eof:
			// Upstream feed complete: drain our own subscribers and
			// send them eof — the propagation step that walks the tree.
			r.mu.Lock()
			aborted := r.abort
			r.mu.Unlock()
			if !aborted {
				if cerr := r.srv.Close(); cerr != nil {
					r.fail(cerr)
				}
			}
			return
		case r.isClosed():
			return
		case errors.Is(err, ErrBadFrame):
			r.fail(err)
			return
		default:
			// Connection lost mid-stream: resume the session from the
			// local head on a fresh connection.
			r.reconnects.Add(1)
		}
	}
}

// dialUpstream performs the relay handshake: an ordinary subscriber
// hello with Relay set and Resume at the local head + 1, so the
// upstream either replays what this hop is missing (memory window or
// its own spool) or rejects with the gap error. The welcome's Hop
// field tells the relay its depth; the downstream server advertises
// hop+1 in its own welcomes. The connection is registered before the
// hello goes out, so Close and Abort can cut a handshake the upstream
// never answers.
func (r *Relay) dialUpstream() (net.Conn, *bufio.Reader, error) {
	conn, err := dialBroker(r.upstream)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return nil, nil, errors.New("stream: relay closed")
	}
	r.conn = conn
	r.mu.Unlock()

	hello := frame{T: frameHello, V: ProtocolVersion, Session: r.session, Resume: r.srv.HeadSeq() + 1, Relay: true}
	welcome, br, err := handshake(conn, hello, nil, frameWelcome)
	if err != nil {
		conn.Close()
		if welcome.Err != "" {
			return nil, nil, fmt.Errorf("%w: %s", ErrGap, welcome.Err)
		}
		return nil, nil, err
	}
	r.srv.hop.Store(int32(welcome.Hop + 1))
	return conn, br, nil
}

// pump reads upstream frames and adopts them until eof, connection
// loss, or a frame that does not decode (an error wrapping
// ErrBadFrame: reconnecting would only replay it). Each batch frame
// gets a fresh buffer — AdoptFrame retains the payload by reference as
// the shared chunk — while control frames are rare enough that the
// allocation doesn't matter. Acks ride on idle moments (empty read
// buffer) and at least every relayAckEvery events, keeping the upstream
// window trimmed without an ack per frame.
func (r *Relay) pump(conn net.Conn, br *bufio.Reader) (eof bool, err error) {
	bw := bufio.NewWriterSize(conn, 1<<10)
	var acked uint64
	ack := func() {
		if head := r.srv.HeadSeq(); head > acked {
			if writeControl(bw, frame{T: frameAck, Ack: head}) == nil && bw.Flush() == nil {
				acked = head
			}
		}
	}
	for {
		payload, rerr := readFrame(br, nil)
		if rerr != nil {
			return false, rerr
		}
		if wire.IsControl(payload) {
			var f frame
			if json.Unmarshal(payload, &f) == nil && f.T == frameEOF {
				ack() // retire everything delivered before hanging up
				return true, nil
			}
			return false, fmt.Errorf("%w: unexpected control frame on relay feed: %.64q", ErrBadFrame, payload)
		}
		n, aerr := r.srv.AdoptFrame(payload)
		if aerr != nil {
			// ErrAdoptGap — the resumed stream skipped frames, which only a
			// broken upstream produces — reconnects and re-resumes; a frame
			// that does not decode (ErrBadFrame) ends the relay.
			return false, aerr
		}
		r.frames.Add(1)
		r.events.Add(uint64(n))
		if r.srv.HeadSeq()-acked >= relayAckEvery || br.Buffered() == 0 {
			ack()
		}
	}
}
