package detector

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/features"
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

// TestPipelineMatchesMonitor is the equivalence test the pipeline
// hangs on: replaying one event stream over one static graph, it must
// flag exactly the set the serial Monitor flags, at any chunking
// (one event per Ingest, odd chunks, wire-batch chunks, the whole feed
// at once) and sampling rate.
func TestPipelineMatchesMonitor(t *testing.T) {
	pop := campaignLog(t, 31)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	for _, checkEvery := range []int{1, 3} {
		m := NewMonitor(rule, g, nil)
		m.CheckEvery = checkEvery
		for _, ev := range events {
			m.Observe(ev)
		}
		want := sortedIDs(m.FlaggedIDs())
		if len(want) == 0 {
			t.Fatalf("checkEvery=%d: monitor flagged nothing; equivalence test is vacuous", checkEvery)
		}

		for _, chunk := range []int{1, 7, 256, len(events)} {
			p := NewPipeline(rule, g, WithCheckEvery(checkEvery))
			feedChunks(p, events, chunk)
			p.Close()
			got := sortedIDs(p.FlaggedIDs())
			if len(got) != len(want) {
				t.Fatalf("chunk=%d checkEvery=%d: pipeline flagged %d, monitor %d",
					chunk, checkEvery, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("chunk=%d checkEvery=%d: flagged sets differ at %d: %d vs %d",
						chunk, checkEvery, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPipelineGraphReconstruction feeds a triangle-free synthetic
// stream (CC is identically zero, so graph-growth timing cannot change
// any verdict) and checks the reconstruction mode: the owned graph
// ends up identical in size to the source network's, and the flagged
// set still matches the serial Monitor exactly.
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

	m := NewMonitor(rule, net.Graph(), nil)
	for _, ev := range net.Events() {
		m.Observe(ev)
	}
	want := sortedIDs(m.FlaggedIDs())

	p := NewPipeline(rule, nil, WithGraphReconstruction())
	ingestEach(p, net.Events()...)
	p.Close()

	if got, src := p.Graph().NumEdges(), net.Graph().NumEdges(); got != src {
		t.Errorf("reconstructed %d edges, source has %d", got, src)
	}
	if got, src := p.Graph().NumNodes(), net.Graph().NumNodes(); got > src {
		t.Errorf("reconstructed %d nodes, source has %d", got, src)
	}
	got := sortedIDs(p.FlaggedIDs())
	if len(got) != len(want) {
		t.Fatalf("reconstruction flagged %d, monitor %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flagged sets differ: %v vs %v", got, want)
		}
	}
	if len(want) == 0 || want[0] != 0 {
		t.Fatalf("expected the bursty account 0 flagged, got %v", want)
	}
}

// TestMonitorCheckEveryEdgeCases: 0 and negative CheckEvery normalize
// to 1 (every request evaluated), and flagged accounts are never
// re-evaluated.
func TestMonitorCheckEveryEdgeCases(t *testing.T) {
	for _, every := range []int{0, -3} {
		net := osn.NewNetwork()
		a := net.CreateAccount(osn.Female, osn.Sybil, 0)
		for i := 0; i < 5; i++ {
			net.CreateAccount(osn.Male, osn.Normal, 0)
		}
		cc := &countingClassifier{inner: Rule{OutAcceptMax: 2, FreqMin: -1, CCMax: 2, MinObserved: 3}}
		m := NewMonitor(cc, net.Graph(), nil)
		m.CheckEvery = every
		net.RegisterObserver(m.Observe)
		for i := 1; i <= 5; i++ {
			net.SendFriendRequest(a, osn.AccountID(i), sim.Time(i))
		}
		// Every one of the 5 requests must have been evaluated; the rule
		// fires on the 3rd (MinObserved), after which the account is
		// skipped without consulting the classifier.
		if got := cc.calls; got != 3 {
			t.Errorf("CheckEvery=%d: classify calls = %d, want 3 (evaluate every request, stop once flagged)", every, got)
		}
		if !m.Flagged(a) {
			t.Errorf("CheckEvery=%d: account not flagged", every)
		}
	}
}

// TestPipelineCheckEveryEdgeCases mirrors the Monitor edge cases on
// the Pipeline.
func TestPipelineCheckEveryEdgeCases(t *testing.T) {
	for _, every := range []int{0, -3} {
		net := osn.NewNetwork()
		a := net.CreateAccount(osn.Female, osn.Sybil, 0)
		for i := 0; i < 5; i++ {
			net.CreateAccount(osn.Male, osn.Normal, 0)
		}
		cc := &countingClassifier{inner: Rule{OutAcceptMax: 2, FreqMin: -1, CCMax: 2, MinObserved: 3}}
		p := NewPipeline(cc, net.Graph(), WithCheckEvery(every))
		net.RegisterObserver(func(ev osn.Event) { ingestEach(p, ev) })
		for i := 1; i <= 5; i++ {
			net.SendFriendRequest(a, osn.AccountID(i), sim.Time(i))
		}
		p.Close()
		if got := cc.calls; got != 3 {
			t.Errorf("CheckEvery=%d: classify calls = %d, want 3", every, got)
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

// TestIngestMatchesMonitorWithBarriers: batch ingestion with Snapshot
// cuts through the middle of the trace must flag exactly the set the
// serial Monitor flags — a snapshot reads state, it never moves it.
func TestIngestMatchesMonitorWithBarriers(t *testing.T) {
	pop := campaignLog(t, 83)
	events := pop.Net.Events()
	g := pop.Net.Graph()
	rule := FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), PaperRule())

	m := NewMonitor(rule, g, nil)
	for _, ev := range events {
		m.Observe(ev)
	}
	want := sortedIDs(m.FlaggedIDs())
	if len(want) == 0 {
		t.Fatal("monitor flagged nothing; equivalence test is vacuous")
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
	got := sortedIDs(p.FlaggedIDs())
	if len(got) != len(want) {
		t.Fatalf("pipeline flagged %d, monitor %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flagged sets differ at %d: %d vs %d", i, got[i], want[i])
		}
	}
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
