package osn

import (
	"testing"
)

func twoAccounts() (*Network, AccountID, AccountID) {
	n := NewNetwork()
	a := n.CreateAccount(Female, Normal, 0)
	b := n.CreateAccount(Male, Sybil, 0)
	return n, a, b
}

func TestCreateAccount(t *testing.T) {
	n, a, b := twoAccounts()
	if n.NumAccounts() != 2 {
		t.Fatalf("accounts = %d", n.NumAccounts())
	}
	if n.Account(a).Gender != Female || n.Account(b).Kind != Sybil {
		t.Fatal("profile fields wrong")
	}
	if n.Graph().NumNodes() != 2 {
		t.Fatal("graph nodes out of sync")
	}
}

func TestFriendRequestLifecycleAccept(t *testing.T) {
	n, a, b := twoAccounts()
	if err := n.SendFriendRequest(a, b, 10); err != nil {
		t.Fatal(err)
	}
	if got := n.PendingFor(b); len(got) != 1 || got[0].From != a || got[0].At != 10 {
		t.Fatalf("pending = %+v", got)
	}
	if err := n.RespondFriendRequest(b, a, true, 25); err != nil {
		t.Fatal(err)
	}
	if len(n.PendingFor(b)) != 0 {
		t.Fatal("pending not cleared")
	}
	if !n.Graph().HasEdge(a, b) {
		t.Fatal("edge missing after accept")
	}
	if got := n.Graph().Neighbors(a)[0].Time; got != 25 {
		t.Fatalf("edge time = %d, want response time 25", got)
	}
	evs := n.Events()
	if len(evs) != 2 || evs[0].Type != EvFriendRequest || evs[1].Type != EvFriendAccept {
		t.Fatalf("events = %+v", evs)
	}
}

func TestFriendRequestReject(t *testing.T) {
	n, a, b := twoAccounts()
	n.SendFriendRequest(a, b, 1)
	if err := n.RespondFriendRequest(b, a, false, 2); err != nil {
		t.Fatal(err)
	}
	if n.Graph().HasEdge(a, b) {
		t.Fatal("edge created on reject")
	}
	evs := n.Events()
	if evs[len(evs)-1].Type != EvFriendReject {
		t.Fatalf("last event = %v", evs[len(evs)-1].Type)
	}
}

func TestRequestValidation(t *testing.T) {
	n, a, b := twoAccounts()
	if err := n.SendFriendRequest(a, a, 0); err != ErrSelfRequest {
		t.Fatalf("self request err = %v", err)
	}
	n.SendFriendRequest(a, b, 1)
	if err := n.SendFriendRequest(a, b, 2); err != ErrDuplicate {
		t.Fatalf("duplicate err = %v", err)
	}
	n.RespondFriendRequest(b, a, true, 3)
	if err := n.SendFriendRequest(a, b, 4); err != ErrAlreadyFriends {
		t.Fatalf("already-friends err = %v", err)
	}
}

func TestSymmetricRequestAutoAccepts(t *testing.T) {
	n, a, b := twoAccounts()
	n.SendFriendRequest(a, b, 1)
	if err := n.SendFriendRequest(b, a, 5); err != nil {
		t.Fatalf("symmetric request err = %v", err)
	}
	if !n.Graph().HasEdge(a, b) {
		t.Fatal("symmetric requests did not auto-friend")
	}
	if len(n.PendingFor(a)) != 0 || len(n.PendingFor(b)) != 0 {
		t.Fatal("pending queues not cleared")
	}
}

func TestRespondWithoutRequest(t *testing.T) {
	n, a, b := twoAccounts()
	if err := n.RespondFriendRequest(b, a, true, 1); err != ErrNoRequest {
		t.Fatalf("err = %v", err)
	}
}

func TestBanBlocksActivity(t *testing.T) {
	n, a, b := twoAccounts()
	n.Ban(b, 7)
	if !n.Account(b).Banned || n.Account(b).BannedAt != 7 {
		t.Fatal("ban not recorded")
	}
	if err := n.SendFriendRequest(b, a, 8); err != ErrBanned {
		t.Fatalf("banned send err = %v", err)
	}
	if err := n.SendFriendRequest(a, b, 8); err != ErrBanned {
		t.Fatalf("send-to-banned err = %v", err)
	}
	if err := n.SendMessage(b, a, 8); err != ErrBanned {
		t.Fatalf("banned message err = %v", err)
	}
	// Idempotent: only one ban event.
	n.Ban(b, 9)
	bans := 0
	for _, ev := range n.Events() {
		if ev.Type == EvBan {
			bans++
		}
	}
	if bans != 1 {
		t.Fatalf("ban events = %d", bans)
	}
}

func TestAcceptFromBannedRequesterDropped(t *testing.T) {
	n, a, b := twoAccounts()
	n.SendFriendRequest(b, a, 1)
	n.Ban(b, 2)
	if err := n.RespondFriendRequest(a, b, true, 3); err != ErrBanned {
		t.Fatalf("err = %v", err)
	}
	if n.Graph().HasEdge(a, b) {
		t.Fatal("edge created with banned account")
	}
}

func TestObserverSeesEverything(t *testing.T) {
	n := NewNetwork()
	var seen []Event
	n.RegisterObserver(func(ev Event) { seen = append(seen, ev) })
	a := n.CreateAccount(Female, Normal, 0)
	b := n.CreateAccount(Female, Normal, 0)
	n.SendFriendRequest(a, b, 1)
	n.RespondFriendRequest(b, a, true, 2)
	n.SendMessage(a, b, 3)
	n.Ban(a, 4)
	if len(seen) != len(n.Events()) || len(seen) != 4 {
		t.Fatalf("observer saw %d events, log has %d", len(seen), len(n.Events()))
	}
}

func TestKeepLogOff(t *testing.T) {
	n := NewNetwork()
	n.SetKeepLog(false)
	count := 0
	n.RegisterObserver(func(Event) { count++ })
	a := n.CreateAccount(Female, Normal, 0)
	b := n.CreateAccount(Female, Normal, 0)
	n.SendFriendRequest(a, b, 1)
	if len(n.Events()) != 0 {
		t.Fatal("log retained with keepLog=false")
	}
	if count != 1 {
		t.Fatalf("observer count = %d", count)
	}
}

func TestPendingArrivalOrder(t *testing.T) {
	n := NewNetwork()
	target := n.CreateAccount(Female, Normal, 0)
	var senders []AccountID
	for i := 0; i < 5; i++ {
		s := n.CreateAccount(Male, Sybil, 0)
		senders = append(senders, s)
		n.SendFriendRequest(s, target, int64(10+i))
	}
	pend := n.PendingFor(target)
	for i, p := range pend {
		if p.From != senders[i] {
			t.Fatalf("pending order = %+v", pend)
		}
	}
}

func TestKindString(t *testing.T) {
	if Normal.String() != "normal" || Sybil.String() != "sybil" || Page.String() != "page" {
		t.Fatal("kind names wrong")
	}
	if EvFriendRequest.String() != "friend_request" || EvBan.String() != "ban" {
		t.Fatal("event names wrong")
	}
}
