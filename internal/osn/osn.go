// Package osn implements the Renren-substitute online social network:
// accounts with profiles, the friend-request lifecycle (send, accept,
// reject), timestamped bidirectional friendships, messaging, and ban
// machinery, all recorded to an append-only event log.
//
// The paper's detector consumed Renren's production friend-invitation
// logs; this package produces logs with the same information content
// (who asked whom, when, and what the recipient decided), which is all
// that the downstream feature extraction requires.
package osn

import (
	"errors"
	"fmt"

	"sybilwild/internal/graph"
	"sybilwild/internal/sim"
)

// AccountID identifies an account. It doubles as the account's node ID
// in the social graph.
type AccountID = graph.NodeID

// Gender of the profile (the paper reports Sybils skew 77.3% female
// profile photos vs 46.5% in the user population).
type Gender uint8

// Gender values.
const (
	Male Gender = iota
	Female
)

// Kind is the ground-truth class of an account. The simulator knows the
// truth because it created the account; detectors never see this field.
type Kind uint8

// Kind values.
const (
	Normal Kind = iota
	Sybil
	Page // commercial page; target of Sybil ad campaigns
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Normal:
		return "normal"
	case Sybil:
		return "sybil"
	case Page:
		return "page"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Account is a user profile plus account state.
type Account struct {
	ID        AccountID
	Gender    Gender
	Kind      Kind
	CreatedAt sim.Time
	Banned    bool
	BannedAt  sim.Time
}

// EventType enumerates log event kinds.
type EventType uint8

// Event types.
const (
	EvFriendRequest EventType = iota // Actor asked Target
	EvFriendAccept                   // Actor (recipient) accepted Target's request; edge created
	EvFriendReject                   // Actor (recipient) rejected Target's request
	EvMessage                        // Actor messaged Target (spam surface)
	EvBan                            // Target banned (Actor unused)
	EvBlogPost                       // Actor published blog Aux
	EvBlogShare                      // Actor re-shared blog Aux by Target
	// EvCutover is the broker's live-rebalance record, never a
	// producer's: partition group Actor (its size K) is cut over to a
	// group of Target workers, and the record's own feed sequence is the
	// barrier. Shape-K workers judge through it and retire.
	EvCutover
	// EvFriendship is a friendship {Actor, Target} that predates the
	// observed requests (the bootstrap history): it only adds the edge,
	// counts toward no feature and is never judged.
	EvFriendship
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case EvFriendRequest:
		return "friend_request"
	case EvFriendAccept:
		return "friend_accept"
	case EvFriendReject:
		return "friend_reject"
	case EvMessage:
		return "message"
	case EvBan:
		return "ban"
	case EvBlogPost:
		return "blog_post"
	case EvBlogShare:
		return "blog_share"
	case EvCutover:
		return "cutover"
	case EvFriendship:
		return "friendship"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one operational-log record. Aux carries the blog ID for
// feed events and is zero otherwise.
type Event struct {
	Type   EventType
	At     sim.Time
	Actor  AccountID
	Target AccountID
	Aux    int32
}

// Observer receives every event as it is appended. Observers run
// synchronously inside the mutating call; they must not mutate the
// network reentrantly.
type Observer func(Event)

// Request errors.
var (
	ErrBanned         = errors.New("osn: account is banned")
	ErrSelfRequest    = errors.New("osn: cannot friend yourself")
	ErrAlreadyFriends = errors.New("osn: already friends")
	ErrDuplicate      = errors.New("osn: request already pending")
	ErrNoRequest      = errors.New("osn: no such pending request")
)

// PendingRequest is an incoming friend request awaiting a decision.
type PendingRequest struct {
	From AccountID
	At   sim.Time
}

// Network is the OSN state. It is not safe for concurrent use; the
// simulation is single-threaded and streaming consumers attach via
// observers.
type Network struct {
	accounts  []Account
	g         *graph.Graph
	pendingIn [][]PendingRequest // per-recipient queue, arrival order
	events    []Event
	observers []Observer
	keepLog   bool
	blogs     []blog
}

// NewNetwork returns an empty network that records its event log in
// memory (see SetKeepLog to disable for very large runs where only
// observers are needed).
func NewNetwork() *Network {
	return &Network{g: graph.New(0), keepLog: true}
}

// SetKeepLog toggles in-memory event-log retention. Observers fire
// regardless.
func (n *Network) SetKeepLog(keep bool) { n.keepLog = keep }

// RegisterObserver attaches a synchronous event observer.
func (n *Network) RegisterObserver(o Observer) { n.observers = append(n.observers, o) }

// CreateAccount registers a new account and returns its ID.
func (n *Network) CreateAccount(g Gender, k Kind, at sim.Time) AccountID {
	id := n.g.AddNode()
	n.accounts = append(n.accounts, Account{ID: id, Gender: g, Kind: k, CreatedAt: at})
	n.pendingIn = append(n.pendingIn, nil)
	return id
}

// NumAccounts returns the number of accounts ever created.
func (n *Network) NumAccounts() int { return len(n.accounts) }

// Account returns a copy of the account record.
func (n *Network) Account(id AccountID) Account { return n.accounts[id] }

// Graph exposes the accepted-friendship graph. Callers must treat it
// as read-only.
func (n *Network) Graph() *graph.Graph { return n.g }

// Events returns the retained event log. Callers must not modify it.
func (n *Network) Events() []Event { return n.events }

// Accounts returns the account table. Callers must not modify it.
func (n *Network) Accounts() []Account { return n.accounts }

func (n *Network) emit(ev Event) {
	if n.keepLog {
		n.events = append(n.events, ev)
	}
	for _, o := range n.observers {
		o(ev)
	}
}

// SendFriendRequest records that from asked to at time at. The request
// sits in to's pending queue until RespondFriendRequest.
func (n *Network) SendFriendRequest(from, to AccountID, at sim.Time) error {
	if from == to {
		return ErrSelfRequest
	}
	if n.accounts[from].Banned || n.accounts[to].Banned {
		return ErrBanned
	}
	if n.g.HasEdge(from, to) {
		return ErrAlreadyFriends
	}
	for _, p := range n.pendingIn[to] {
		if p.From == from {
			return ErrDuplicate
		}
	}
	// A symmetric pending request (to already asked from) is treated as
	// an implicit accept, like production OSNs do.
	for i, p := range n.pendingIn[from] {
		if p.From == to {
			n.pendingIn[from] = append(n.pendingIn[from][:i], n.pendingIn[from][i+1:]...)
			n.emit(Event{Type: EvFriendRequest, At: at, Actor: from, Target: to})
			n.g.AddEdge(from, to, at)
			n.emit(Event{Type: EvFriendAccept, At: at, Actor: from, Target: to})
			return nil
		}
	}
	n.pendingIn[to] = append(n.pendingIn[to], PendingRequest{From: from, At: at})
	n.emit(Event{Type: EvFriendRequest, At: at, Actor: from, Target: to})
	return nil
}

// RespondFriendRequest has `to` accept or reject the pending request
// from `from`. Accepting creates the friendship edge stamped with the
// response time (edge creation time, per the paper's timestamp data).
func (n *Network) RespondFriendRequest(to, from AccountID, accept bool, at sim.Time) error {
	if n.accounts[to].Banned {
		return ErrBanned
	}
	idx := -1
	for i, p := range n.pendingIn[to] {
		if p.From == from {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrNoRequest
	}
	n.pendingIn[to] = append(n.pendingIn[to][:idx], n.pendingIn[to][idx+1:]...)
	if accept {
		if n.accounts[from].Banned {
			// Requester was banned while pending: drop silently.
			return ErrBanned
		}
		n.g.AddEdge(to, from, at)
		n.emit(Event{Type: EvFriendAccept, At: at, Actor: to, Target: from})
		return nil
	}
	n.emit(Event{Type: EvFriendReject, At: at, Actor: to, Target: from})
	return nil
}

// AddFriendship records the friendship {u, v} with no request behind
// it, as history from before the observed log, and reports whether it
// is new (graph.Graph.AddEdge); only a new one is logged.
func (n *Network) AddFriendship(u, v AccountID, at sim.Time) bool {
	if !n.g.AddEdge(u, v, at) {
		return false
	}
	n.emit(Event{Type: EvFriendship, At: at, Actor: u, Target: v})
	return true
}

// PendingFor returns to's incoming pending requests in arrival order.
// Callers must not modify the returned slice.
func (n *Network) PendingFor(to AccountID) []PendingRequest { return n.pendingIn[to] }

// SendMessage records a message (the spam-delivery surface).
func (n *Network) SendMessage(from, to AccountID, at sim.Time) error {
	if n.accounts[from].Banned {
		return ErrBanned
	}
	n.emit(Event{Type: EvMessage, At: at, Actor: from, Target: to})
	return nil
}

// Ban marks the account banned. Banned accounts can no longer send
// requests or messages and their pending outgoing requests can no
// longer be accepted. Banning is idempotent.
func (n *Network) Ban(id AccountID, at sim.Time) {
	if n.accounts[id].Banned {
		return
	}
	n.accounts[id].Banned = true
	n.accounts[id].BannedAt = at
	n.emit(Event{Type: EvBan, At: at, Target: id})
}

// Restore rebuilds a Network from serialized state: the account
// table and the event log, whose friendship and accept events are the
// edges, added in log order. Pending requests are not part of
// serialized state (the paper's analyses never consume them), so the
// restored network has empty pending queues.
func Restore(accounts []Account, events []Event) *Network {
	n := NewNetwork()
	for _, a := range accounts {
		id := n.CreateAccount(a.Gender, a.Kind, a.CreatedAt)
		if id != a.ID {
			panic("osn: account table not dense by ID")
		}
		n.accounts[id].Banned = a.Banned
		n.accounts[id].BannedAt = a.BannedAt
	}
	for _, ev := range events {
		if ev.Type == EvFriendship || ev.Type == EvFriendAccept {
			n.g.AddEdge(ev.Actor, ev.Target, ev.At)
		}
	}
	n.events = append(n.events, events...)
	return n
}
