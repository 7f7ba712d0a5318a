// Package campaign generates the one seeded burst campaign the referees
// replay: the traffic shape the paper's detector keys on (§2.2–2.3),
// Sybils' bursts of friend requests that few accept, threaded through
// normal users' slower, better-accepted requests.
package campaign

import (
	"fmt"
	"math/rand"

	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

const (
	sybilEvery    = 50  // every 50th account, from 0, is a Sybil
	acceptShare   = 0.4 // normal requests accepted a tick later
	burstRequests = 30  // requests in each Sybil's burst
)

// IsSybil reports whether Burst makes id a Sybil: every 50th, from 0.
func IsSybil(id osn.AccountID) bool { return id%sybilEvery == 0 }

// Burst returns rounds hourly rounds among accounts accounts: every
// normal account sends one friend request a round, 40 % accepted a tick
// later unless the target is a Sybil. Each Sybil sends one burst of 30
// requests, starting at the start of its equal span of the chatter, one
// every min(16, span/30) chatter events. The run needs at least one
// account and 30 chatter events per Sybil, and Burst panics, naming its
// arguments, when it has fewer. Equal arguments give identical feeds.
func Burst(seed int64, accounts, rounds int) []osn.Event {
	r := rand.New(rand.NewSource(seed))
	target := func(self int) osn.AccountID {
		t := r.Intn(accounts)
		if t == self {
			t = (self + 1) % accounts
		}
		return osn.AccountID(t)
	}
	var chatter []osn.Event
	for round := 0; round < rounds; round++ {
		at := sim.Time(round+1) * sim.TicksPerHour
		for id := 0; id < accounts; id++ {
			if IsSybil(osn.AccountID(id)) {
				continue
			}
			tgt := target(id)
			chatter = append(chatter, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: osn.AccountID(id), Target: tgt})
			if r.Float64() < acceptShare && !IsSybil(tgt) {
				chatter = append(chatter, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: tgt, Target: osn.AccountID(id)})
			}
		}
	}
	// Sybil j's k-th request goes in front of chatter event
	// j*span + k*stride; stride keeps a burst inside its own span.
	sybils := (accounts + sybilEvery - 1) / sybilEvery
	if accounts < 1 || len(chatter) < burstRequests*sybils {
		panic(fmt.Sprintf("campaign: Burst(%d, %d, %d): the run needs at least one account and %d chatter events per Sybil, and has %d for %d Sybils",
			seed, accounts, rounds, burstRequests, len(chatter), sybils))
	}
	span := len(chatter) / sybils
	stride := min(16, span/burstRequests)
	events := make([]osn.Event, 0, len(chatter)+sybils*burstRequests)
	for i, ev := range chatter {
		if j, k := i/span, i%span; j < sybils && k%stride == 0 && k/stride < burstRequests {
			id := j * sybilEvery
			events = append(events, osn.Event{
				Type: osn.EvFriendRequest, At: chatter[j*span].At + 2 + sim.Time(k/stride),
				Actor: osn.AccountID(id), Target: target(id),
			})
		}
		events = append(events, ev)
	}
	return events
}
