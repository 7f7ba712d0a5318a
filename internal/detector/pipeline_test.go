package detector

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stats"
)

// countingClassifier wraps a Classifier and counts Classify calls.
type countingClassifier struct {
	inner Classifier
	calls int
}

func (c *countingClassifier) Classify(v features.Vector) bool {
	c.calls++
	return c.inner.Classify(v)
}

// flagAll is a classifier that flags every vector it sees.
type flagAll struct{}

func (flagAll) Classify(features.Vector) bool { return true }

// campaignLog runs a small Sybil campaign and returns the finished
// population (static graph + retained event log) for replay tests.
func campaignLog(t testing.TB, seed int64) *agents.Population {
	t.Helper()
	pop := agents.NewPopulation(seed, agents.DefaultParams())
	pop.Bootstrap(1500)
	pop.LaunchSybils(25, 50*sim.TicksPerHour)
	pop.RunFor(200 * sim.TicksPerHour)
	return pop
}

// ingestEach feeds events one Ingest call per event — the shape a
// live osn.Observer delivers.
func ingestEach(p *Pipeline, events ...osn.Event) {
	for i := range events {
		p.Ingest(Batch{Events: events[i : i+1]})
	}
}

func sortedIDs(ids []osn.AccountID) []osn.AccountID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// referenceOver returns a reference judging every checkEvery-th
// request over g's friendships as they stand, frozen: the counterpart
// of a pipeline over a caller's finished graph.
func referenceOver(rule Rule, checkEvery int, g *graph.Graph) *reference {
	ref := newReference(rule, checkEvery)
	for _, e := range g.Edges() {
		ref.befriend(e.U, e.V)
	}
	ref.frozen = true
	return ref
}

// TestPipelineMatchesReference is the equivalence test the pipeline
// hangs on: replaying a campaign's event log, it must flag exactly the
// accounts the reference flags, at the same requests and with the same
// feature values, at any chunking (one event per Ingest, odd chunks,
// wire-batch chunks, the whole feed at once) and check cadence — both
// over the campaign's finished graph and over the graph it rebuilds
// from the log's accepts.
func TestPipelineMatchesReference(t *testing.T) {
	for _, seed := range []int64{31, 47, 53, 61, 67, 73, 83, 89, 97} {
		pop := campaignLog(t, seed)
		events := pop.Net.Events()
		g := pop.Net.Graph()
		rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())
		for _, checkEvery := range []int{1, 3, 5} {
			for _, rebuild := range []bool{false, true} {
				ref, opts := referenceOver(rule, checkEvery, g), []PipelineOption{WithCheckEvery(checkEvery)}
				if rebuild {
					ref, opts = newReference(rule, checkEvery), append(opts, WithGraphReconstruction())
				}
				ref.replay(events)
				if len(ref.flags) == 0 {
					t.Fatalf("seed=%d checkEvery=%d rebuild=%v: reference flagged nothing; the test is vacuous", seed, checkEvery, rebuild)
				}
				for _, chunk := range []int{1, 7, 256, len(events)} {
					p := NewPipeline(rule, g, opts...)
					feedChunks(p, events, chunk)
					p.Close()
					requireMatchesReference(t, fmt.Sprintf("seed=%d checkEvery=%d rebuild=%v chunk=%d", seed, checkEvery, rebuild, chunk), p.Flags(), ref)
				}
			}
		}
	}
}

// TestPipelineGraphReconstruction feeds a triangle-free synthetic
// stream (CC is identically zero, so graph-growth timing cannot change
// any verdict) and checks the reconstruction mode: the owned graph
// ends up identical in size to the source network's, and the flags
// still match the reference exactly.
func TestPipelineGraphReconstruction(t *testing.T) {
	net := osn.NewNetwork()
	const accounts = 400
	for i := 0; i < accounts; i++ {
		net.CreateAccount(osn.Male, osn.Normal, 0)
	}
	// Account 0 behaves like a Sybil: a burst of requests to distinct
	// targets, mostly ignored. Accounts 1..20 behave normally: a few
	// requests, all accepted. Stars only — no triangles anywhere.
	at := sim.Time(0)
	for i := 1; i < 60; i++ {
		at += 2
		net.SendFriendRequest(0, osn.AccountID(i), at)
	}
	net.RespondFriendRequest(1, 0, true, at+1)
	for i := 1; i <= 20; i++ {
		from := osn.AccountID(i)
		to := osn.AccountID(100 + i)
		net.SendFriendRequest(from, to, at+sim.Time(i)*sim.TicksPerHour)
		net.RespondFriendRequest(to, from, true, at+sim.Time(i)*sim.TicksPerHour+5)
	}
	rule := PaperRule()
	ref := newReference(rule, 1).replay(net.Events())

	p := NewPipeline(rule, nil, WithGraphReconstruction())
	ingestEach(p, net.Events()...)
	p.Close()

	if got, src := p.Graph().NumEdges(), net.Graph().NumEdges(); got != src {
		t.Errorf("reconstructed %d edges, source has %d", got, src)
	}
	if got, src := p.Graph().NumNodes(), net.Graph().NumNodes(); got > src {
		t.Errorf("reconstructed %d nodes, source has %d", got, src)
	}
	requireMatchesReference(t, "reconstruction", p.Flags(), ref)
	if want := verdictIDs(ref.verdicts()); len(want) == 0 || want[0] != 0 {
		t.Fatalf("expected the bursty account 0 flagged, got %v", want)
	}
}

// TestPipelineCheckEveryEdgeCases: 0 and negative WithCheckEvery
// normalize to 1 (every request evaluated), and flagged accounts are
// never re-evaluated.
func TestPipelineCheckEveryEdgeCases(t *testing.T) {
	for _, every := range []int{0, -3} {
		net := osn.NewNetwork()
		a := net.CreateAccount(osn.Female, osn.Sybil, 0)
		for i := 0; i < 5; i++ {
			net.CreateAccount(osn.Male, osn.Normal, 0)
		}
		cc := &countingClassifier{inner: Rule{OutAcceptMax: 2, FreqMin: -1, CCMax: 2, MinObserved: 3}}
		p := NewPipeline(cc, net.Graph(), WithCheckEvery(every))
		net.RegisterObserver(p.Observe)
		for i := 1; i <= 5; i++ {
			net.SendFriendRequest(a, osn.AccountID(i), sim.Time(i))
		}
		p.Close()
		// Every one of the 5 requests must have been evaluated; the rule
		// fires on the 3rd (MinObserved), after which the account is
		// skipped without consulting the classifier.
		if got := cc.calls; got != 3 {
			t.Errorf("CheckEvery=%d: classify calls = %d, want 3 (evaluate every request, stop once flagged)", every, got)
		}
		if !p.Flagged(a) {
			t.Errorf("CheckEvery=%d: account not flagged", every)
		}
	}
}

// TestPipelineFlagHookOnce: the hook fires exactly once per account,
// on the ingesting goroutine before Ingest returns, with the
// triggering vector attached.
func TestPipelineFlagHookOnce(t *testing.T) {
	seen := make(map[osn.AccountID]int)
	p := NewPipeline(flagAll{}, nil,
		WithGraphReconstruction(),
		WithFlagHook(func(f Flag) {
			seen[f.ID]++ // unsynchronized: -race proves it runs on the ingester
			if f.Vector.OutSent == 0 {
				t.Error("flag vector missing counts")
			}
		}))
	net := osn.NewNetwork()
	for i := 0; i < 20; i++ {
		net.CreateAccount(osn.Male, osn.Normal, 0)
	}
	net.RegisterObserver(func(ev osn.Event) {
		ingestEach(p, ev)
		if ev.Type == osn.EvFriendRequest && seen[ev.Actor] != 1 {
			t.Errorf("Ingest returned with hook fired %d times for account %d", seen[ev.Actor], ev.Actor)
		}
	})
	for i := 0; i < 10; i++ {
		for j := 10; j < 20; j++ {
			net.SendFriendRequest(osn.AccountID(i), osn.AccountID(j), sim.Time(10*i+j))
		}
	}
	p.Close()
	if len(seen) != 10 {
		t.Fatalf("hook saw %d accounts, want 10", len(seen))
	}
	if p.FlaggedCount() != 10 {
		t.Fatalf("FlaggedCount = %d, want 10", p.FlaggedCount())
	}
}

// TestPipelineConcurrentStress hammers one pipeline from many producer
// goroutines, one event per Ingest, over overlapping account ranges
// while another goroutine polls the flag state — the -race workout for
// the pipeline's lock.
func TestPipelineConcurrentStress(t *testing.T) {
	const (
		producers = 8
		accounts  = 2000
		perProd   = 4000
	)
	rule := Rule{OutAcceptMax: 0.9, FreqMin: 0.1, CCMax: 1.1, MinObserved: 8}
	p := NewPipeline(rule, nil, WithGraphReconstruction(), WithCheckEvery(2))

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := stats.NewRand(int64(100 + w))
			for i := 0; i < perProd; i++ {
				from := osn.AccountID(r.Intn(accounts))
				to := osn.AccountID(r.Intn(accounts))
				if from == to {
					continue
				}
				at := sim.Time(i)
				ingestEach(p, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: from, Target: to})
				if r.Bernoulli(0.4) {
					ingestEach(p, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: to, Target: from})
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var polls atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.FlaggedCount()
				_ = p.Flagged(osn.AccountID(polls.Add(1) % accounts))
			}
		}
	}()
	wg.Wait()
	close(stop)
	p.Close()

	if p.FlaggedCount() == 0 {
		t.Fatal("stress run flagged nothing")
	}
	if p.Tracked() == 0 || p.Tracked() > accounts {
		t.Fatalf("tracked %d accounts, want (0, %d]", p.Tracked(), accounts)
	}
	if p.Graph().NumNodes() > accounts {
		t.Fatalf("reconstructed graph has %d nodes, want ≤ %d", p.Graph().NumNodes(), accounts)
	}
	p.Close() // idempotent
}

// TestIngestMatchesReferenceWithBarriers: batch ingestion with
// Snapshot cuts through the middle of the trace must flag exactly what
// the reference flags — a snapshot reads state, it never moves it.
func TestIngestMatchesReferenceWithBarriers(t *testing.T) {
	pop := campaignLog(t, 83)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())
	ref := referenceOver(rule, 1, g).replay(events)
	if len(ref.flags) == 0 {
		t.Fatal("reference flagged nothing; equivalence test is vacuous")
	}

	p := NewPipeline(rule, g)
	const chunk = 256
	cuts := 0
	for i := 0; i < len(events); i += chunk {
		end := min(i+chunk, len(events))
		p.Ingest(Batch{Events: events[i:end]})
		for _, q := range []int{len(events) / 4, len(events) / 2, 3 * len(events) / 4} {
			if i < q && end >= q {
				cuts++
				if snap := p.Snapshot(); len(snap.Accounts) == 0 {
					t.Fatalf("mid-trace snapshot at event %d is empty", end)
				}
			}
		}
	}
	p.Close()
	if cuts != 3 {
		t.Fatalf("took %d mid-trace snapshots, want 3", cuts)
	}
	requireMatchesReference(t, "barriers", p.Flags(), ref)
}

// TestIngestConcurrentStress hammers the batch path from many
// unsequenced Ingest goroutines (whole batches mixed with one-event
// calls) — the -race workout for concurrent ingesters serializing on
// the pipeline's lock.
func TestIngestConcurrentStress(t *testing.T) {
	const (
		producers = 6
		accounts  = 1500
		batches   = 300
		batchLen  = 64
	)
	rule := Rule{OutAcceptMax: 0.9, FreqMin: 0.1, CCMax: 1.1, MinObserved: 8}
	p := NewPipeline(rule, nil, WithGraphReconstruction(), WithCheckEvery(2))

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := stats.NewRand(int64(200 + w))
			evs := make([]osn.Event, 0, 2*batchLen)
			for i := 0; i < batches; i++ {
				evs = evs[:0]
				for j := 0; j < batchLen; j++ {
					from := osn.AccountID(r.Intn(accounts))
					to := osn.AccountID(r.Intn(accounts))
					if from == to {
						continue
					}
					at := sim.Time(i*batchLen + j)
					evs = append(evs, osn.Event{Type: osn.EvFriendRequest, At: at, Actor: from, Target: to})
					if r.Bernoulli(0.4) {
						evs = append(evs, osn.Event{Type: osn.EvFriendAccept, At: at + 1, Actor: to, Target: from})
					}
				}
				if w%2 == 0 || i%7 != 0 {
					p.Ingest(Batch{Events: evs})
				} else {
					ingestEach(p, evs...)
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()

	if p.FlaggedCount() == 0 {
		t.Fatal("stress run flagged nothing")
	}
	if p.Tracked() == 0 || p.Tracked() > accounts {
		t.Fatalf("tracked %d accounts, want (0, %d]", p.Tracked(), accounts)
	}
}

// TestIngestGraphReconstruction: the batch path must also grow
// the owned graph correctly (same star-shaped, triangle-free stream as
// TestPipelineGraphReconstruction).
func TestIngestGraphReconstruction(t *testing.T) {
	net := osn.NewNetwork()
	for i := 0; i < 300; i++ {
		net.CreateAccount(osn.Male, osn.Normal, 0)
	}
	at := sim.Time(0)
	for i := 1; i <= 40; i++ {
		from := osn.AccountID(i)
		to := osn.AccountID(100 + i)
		at += sim.TicksPerHour
		net.SendFriendRequest(from, to, at)
		net.RespondFriendRequest(to, from, true, at+5)
	}
	p := NewPipeline(PaperRule(), nil, WithGraphReconstruction())
	p.Ingest(Batch{Events: net.Events()})
	p.Close()
	if got, src := p.Graph().NumEdges(), net.Graph().NumEdges(); got != src {
		t.Errorf("reconstructed %d edges, source has %d", got, src)
	}
}
