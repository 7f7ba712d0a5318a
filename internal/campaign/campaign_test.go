package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sybilwild/internal/osn"
)

// TestBurstPinned holds Burst to the bytes the referees were recorded
// on (internal/detector's testdata/checkpoint_v1.json and both
// allocation budgets): the SHA-256 of binary.Write's little-endian
// layout of the events.
func TestBurstPinned(t *testing.T) {
	for _, c := range []struct {
		accounts, rounds, events int
		sha256                   string
	}{
		{200, 4, 1216, "72a702d5efdb59ba5503000fd2d0fa822233b129c3b5f5bc48966eaa974c2bb3"},
		{20_000, 10, 284_646, "695cf83b8fea5982fdae90e20caeb4737ecb8c3fb37e14aab093b665bca4c504"},
		{100_000, 10, 1_423_366, "221f2b6d4f980ff734a4f51fd2740821fc683bda7b4a2a2748018f20006349ee"},
	} {
		events := Burst(7, c.accounts, c.rounds)
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, events); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(events) != c.events || got != c.sha256 {
			t.Errorf("Burst(7, %d, %d): %d events, sha256 %s; want %d, %s", c.accounts, c.rounds, len(events), got, c.events, c.sha256)
		}
	}
}

// TestBurstShape: equal seeds give equal feeds, accounts/50 Sybils each
// send exactly 30 requests, no accept names a Sybil, and every ID lies
// in [0, accounts).
func TestBurstShape(t *testing.T) {
	const accounts = 5_000
	events := Burst(11, accounts, 3)
	if !slices.Equal(events, Burst(11, accounts, 3)) || slices.Equal(events, Burst(13, accounts, 3)) {
		t.Fatal("the feed is not a function of the seed")
	}
	requests := map[osn.AccountID]int{}
	for i, ev := range events {
		switch {
		case ev.Actor < 0 || ev.Actor >= accounts || ev.Target < 0 || ev.Target >= accounts:
			t.Fatalf("event %d %+v names an ID outside [0, %d)", i, ev, accounts)
		case ev.Type == osn.EvFriendAccept && (IsSybil(ev.Actor) || IsSybil(ev.Target)):
			t.Fatalf("event %d %+v: an accept names a Sybil", i, ev)
		case ev.Type != osn.EvFriendRequest && ev.Type != osn.EvFriendAccept:
			t.Fatalf("event %d %+v: not a friend request or accept", i, ev)
		case ev.Type == osn.EvFriendRequest && IsSybil(ev.Actor):
			requests[ev.Actor]++
		}
	}
	for id := osn.AccountID(0); id < accounts; id += 50 {
		if requests[id] != 30 {
			t.Errorf("Sybil %d sent %d requests, want 30", id, requests[id])
		}
	}
}

// TestBurstStatesItsPrecondition: a run too short for its Sybils'
// bursts, or one with no accounts, panics with a message naming the
// arguments and the precondition instead of dividing by zero.
func TestBurstStatesItsPrecondition(t *testing.T) {
	for _, c := range []struct {
		accounts, rounds int
		want             string
	}{
		{10, 1, "campaign: Burst(7, 10, 1): the run needs at least one account and 30 chatter events per Sybil, and has "},
		{0, 4, "campaign: Burst(7, 0, 4): the run needs at least one account and 30 chatter events per Sybil, and has 0 for 0 Sybils"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, c.want) {
					t.Errorf("Burst(7, %d, %d) panicked with %q, want a message starting %q", c.accounts, c.rounds, msg, c.want)
				}
			}()
			Burst(7, c.accounts, c.rounds)
		}()
	}
}
