package main

import (
	"math/rand"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

// Shape of the burst campaign. The program under test only ever sees
// the events; everything here belongs to the load generator.
const (
	defaultAccounts = 100_000
	sybilEvery      = 50  // every 50th account is a Sybil
	chatterRounds   = 10  // hourly rounds of one request per normal account
	acceptShare     = 0.4 // share of normal requests the recipient accepts
	burstRequests   = 30  // friend requests per Sybil burst
	burstStride     = 16  // normal events between two requests of one burst

	// workers is K, the size of the partitioned detection cluster.
	workers = 2
	// chunkSize is the hand-off unit everywhere: one publisher batch,
	// one broker frame, one Ingest call.
	chunkSize = stream.DefaultMaxBatch
)

// feed is one generated campaign plus what the serial oracle pass said
// about it. It is built once per process and shared, read-only, by
// every repetition.
type feed struct {
	accounts int
	events   []osn.Event

	// trigger[id] is the index in events of the friend request on
	// which the oracle flagged account id, or -1 when it did not.
	trigger  []int32
	expected int // accounts the oracle flagged

	// owed[w] counts the events osn.PartitionDelivers routes to worker
	// w; filterFrames counts (chunk, worker) pairs with at least one
	// such event, which is how many fbatch encodes a broker serving the
	// K partitions performs on this feed.
	owed         [workers]int
	filterFrames int

	oracleEvps float64 // single-threaded detector rate of the oracle pass
}

func isSybil(id int) bool { return id%sybilEvery == 0 }

// generate builds the campaign for a seed: chatterRounds hourly rounds
// in which every normal account sends one request (acceptShare of them
// accepted at once), with each Sybil's burst threaded through the
// chatter at burstStride spacing and the bursts spread evenly over the
// whole run, so flags — the latency samples — occur throughout. Equal
// seeds give byte-identical feeds.
func generate(seed int64, accounts int) []osn.Event {
	r := rand.New(rand.NewSource(seed))
	target := func(self int) osn.AccountID {
		t := r.Intn(accounts)
		if t == self {
			t = (self + 1) % accounts
		}
		return osn.AccountID(t)
	}

	chatter := make([]osn.Event, 0, accounts*chatterRounds*3/2)
	for round := 0; round < chatterRounds; round++ {
		at := sim.Time(round+1) * sim.TicksPerHour
		for id := 0; id < accounts; id++ {
			if isSybil(id) {
				continue
			}
			tgt := target(id)
			chatter = append(chatter, osn.Event{
				Type: osn.EvFriendRequest, At: at,
				Actor: osn.AccountID(id), Target: tgt,
			})
			// Sybils befriend nobody (see the README on why the flag set
			// must not depend on any Sybil's clustering coefficient).
			if r.Float64() < acceptShare && !isSybil(int(tgt)) {
				chatter = append(chatter, osn.Event{
					Type: osn.EvFriendAccept, At: at + 1,
					Actor: tgt, Target: osn.AccountID(id),
				})
			}
		}
	}

	sybils := (accounts + sybilEvery - 1) / sybilEvery
	events := make([]osn.Event, 0, len(chatter)+sybils*burstRequests)
	// Sybil j's k-th request goes in front of chatter event
	// start(j)+k*burstStride. Consecutive bursts never overlap:
	// len(chatter)/sybils is about 690 events and a burst spans 480.
	start := func(j int) int {
		s := (2*j+1)*len(chatter)/(2*sybils) - burstRequests*burstStride/2
		if s < 0 {
			s = 0
		}
		return s
	}
	j, k := 0, 0
	for i, ev := range chatter {
		if j < sybils && i == start(j)+k*burstStride {
			id := j * sybilEvery
			events = append(events, osn.Event{
				Type: osn.EvFriendRequest, At: chatter[start(j)].At + 2 + sim.Time(k),
				Actor: osn.AccountID(id), Target: target(id),
			})
			if k++; k == burstRequests {
				j, k = j+1, 0
			}
		}
		events = append(events, ev)
	}
	return events
}

// newFeed generates the campaign and runs the oracle over it.
func newFeed(seed int64, accounts int, rule detector.Rule) *feed {
	f := &feed{accounts: accounts, events: generate(seed, accounts)}
	f.runOracle(rule)
	seen := make([]bool, workers)
	for lo := 0; lo < len(f.events); lo += chunkSize {
		for w := range seen {
			seen[w] = false
		}
		for _, ev := range f.chunk(lo / chunkSize) {
			for w := 0; w < workers; w++ {
				if osn.PartitionDelivers(ev, w, workers) {
					f.owed[w]++
					seen[w] = true
				}
			}
		}
		for _, s := range seen {
			if s {
				f.filterFrames++
			}
		}
	}
	return f
}

func (f *feed) chunks() int { return (len(f.events) + chunkSize - 1) / chunkSize }

func (f *feed) chunk(c int) []osn.Event {
	lo, hi := c*chunkSize, (c+1)*chunkSize
	if hi > len(f.events) {
		hi = len(f.events)
	}
	return f.events[lo:hi]
}

// runOracle is the serial reference pass: one unpartitioned one-shard
// pipeline fed the same chunkSize chunks every workload hands off. It
// fixes the expected flag set and, per flag, the trigger event; its
// wall-clock rate is the single-threaded baseline. The chunking
// matters: the pipeline grows its graph a batch at a time, so feeding
// the campaign as one giant batch evaluates early requests against
// edges that do not exist yet and flags a different set.
func (f *feed) runOracle(rule detector.Rule) {
	p := detector.NewPipeline(rule, nil, detector.WithGraphReconstruction(), detector.WithShards(1))
	t0 := time.Now()
	for c := 0; c < f.chunks(); c++ {
		p.Ingest(detector.Batch{Events: f.chunk(c)})
	}
	p.Close()
	f.oracleEvps = float64(len(f.events)) / time.Since(t0).Seconds()

	// A flag carries its trigger request's timestamp, and no account
	// in this feed sends two requests at one tick, so (actor, at)
	// names the trigger event exactly.
	flaggedAt := make(map[osn.AccountID]sim.Time)
	for _, fl := range p.Flags() {
		flaggedAt[fl.ID] = fl.At
	}
	f.expected = len(flaggedAt)
	f.trigger = make([]int32, f.accounts)
	for i := range f.trigger {
		f.trigger[i] = -1
	}
	for i, ev := range f.events {
		if ev.Type != osn.EvFriendRequest || f.trigger[ev.Actor] >= 0 {
			continue
		}
		if at, ok := flaggedAt[ev.Actor]; ok && at == ev.At {
			f.trigger[ev.Actor] = int32(i)
		}
	}
}

// partitionSlices materialises what osn.PartitionDelivers owes each
// worker, with the feed index of every delivered event — the input of
// the socket-less detector-direct workload.
func (f *feed) partitionSlices() (evs [workers][]osn.Event, idx [workers][]int32) {
	for w := 0; w < workers; w++ {
		evs[w] = make([]osn.Event, 0, f.owed[w])
		idx[w] = make([]int32, 0, f.owed[w])
	}
	for i, ev := range f.events {
		for w := 0; w < workers; w++ {
			if osn.PartitionDelivers(ev, w, workers) {
				evs[w] = append(evs[w], ev)
				idx[w] = append(idx[w], int32(i))
			}
		}
	}
	return evs, idx
}
