package features

import (
	"math"
	"testing"

	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// buildNet makes a network where account 0 sends requests to 1..n at
// the given times; acceptors accept immediately.
func buildNet(times []sim.Time, accepts []bool) (*osn.Network, osn.AccountID) {
	net := osn.NewNetwork()
	sender := net.CreateAccount(osn.Female, osn.Sybil, 0)
	for i, at := range times {
		to := net.CreateAccount(osn.Male, osn.Normal, 0)
		net.SendFriendRequest(sender, to, at)
		if accepts[i] {
			net.RespondFriendRequest(to, sender, true, at+1)
		} else {
			net.RespondFriendRequest(to, sender, false, at+1)
		}
	}
	return net, sender
}

func TestOutgoingAcceptRatio(t *testing.T) {
	net, sender := buildNet(
		[]sim.Time{10, 20, 30, 40},
		[]bool{true, false, true, false},
	)
	v := Extract(net, []osn.AccountID{sender})[0]
	if v.OutSent != 4 || v.OutAccepted != 2 {
		t.Fatalf("counts = %d/%d", v.OutAccepted, v.OutSent)
	}
	if v.OutAccept != 0.5 {
		t.Fatalf("OutAccept = %v", v.OutAccept)
	}
}

func TestInvitationFrequencyWindows(t *testing.T) {
	// 10 requests over exactly 4 hours of activity (span 240 ticks):
	// 5 one-hour windows (inclusive partial) → 2/window; one 400-hour
	// window → 10.
	var times []sim.Time
	accepts := make([]bool, 10)
	for i := 0; i < 10; i++ {
		times = append(times, sim.Time(i)*24) // span = 216 ticks < 4h
	}
	net, sender := buildNet(times, accepts)
	v := Extract(net, []osn.AccountID{sender})[0]
	// span = 216 ticks → windows = 216/60+1 = 4 → 2.5 per 1h window.
	if v.Freq1h != 2.5 {
		t.Fatalf("Freq1h = %v, want 2.5", v.Freq1h)
	}
	if v.Freq400h != 10 {
		t.Fatalf("Freq400h = %v, want 10", v.Freq400h)
	}
}

func TestSingleRequestFrequency(t *testing.T) {
	net, sender := buildNet([]sim.Time{100}, []bool{true})
	v := Extract(net, []osn.AccountID{sender})[0]
	if v.Freq1h != 1 || v.Freq400h != 1 {
		t.Fatalf("freqs = %v/%v, want 1/1", v.Freq1h, v.Freq400h)
	}
}

func TestNoActivityVectorIsZero(t *testing.T) {
	net := osn.NewNetwork()
	id := net.CreateAccount(osn.Female, osn.Normal, 0)
	v := Extract(net, []osn.AccountID{id})[0]
	if v.Freq1h != 0 || v.OutAccept != 0 || v.InAccept != 0 || v.CC != 0 {
		t.Fatalf("zero-activity vector = %+v", v)
	}
}

func TestIncomingAcceptRatio(t *testing.T) {
	net := osn.NewNetwork()
	target := net.CreateAccount(osn.Female, osn.Sybil, 0)
	var senders []osn.AccountID
	for i := 0; i < 4; i++ {
		senders = append(senders, net.CreateAccount(osn.Male, osn.Normal, 0))
		net.SendFriendRequest(senders[i], target, sim.Time(i))
	}
	net.RespondFriendRequest(target, senders[0], true, 10)
	net.RespondFriendRequest(target, senders[1], true, 11)
	net.RespondFriendRequest(target, senders[2], false, 12)
	// senders[3] left pending: still counts in the denominator.
	v := Extract(net, []osn.AccountID{target})[0]
	if v.InReceived != 4 || v.InAccepted != 2 {
		t.Fatalf("in counts = %d/%d", v.InAccepted, v.InReceived)
	}
	if v.InAccept != 0.5 {
		t.Fatalf("InAccept = %v", v.InAccept)
	}
}

func TestCCFromGraph(t *testing.T) {
	net := osn.NewNetwork()
	a := net.CreateAccount(osn.Female, osn.Normal, 0)
	b := net.CreateAccount(osn.Male, osn.Normal, 0)
	c := net.CreateAccount(osn.Male, osn.Normal, 0)
	// Build triangle a-b, a-c, b-c via requests.
	net.SendFriendRequest(a, b, 1)
	net.RespondFriendRequest(b, a, true, 2)
	net.SendFriendRequest(a, c, 3)
	net.RespondFriendRequest(c, a, true, 4)
	net.SendFriendRequest(b, c, 5)
	net.RespondFriendRequest(c, b, true, 6)
	v := Extract(net, []osn.AccountID{a})[0]
	if v.CC != 1 {
		t.Fatalf("CC = %v, want 1 (triangle)", v.CC)
	}
}

// TestFillCCDoesNotAllocate: the graph keeps a first-FirstFriendsK
// selection's membership set on the stack. Its bound is a constant of
// package graph, which cannot import this one, so it is held to
// FirstFriendsK here.
func TestFillCCDoesNotAllocate(t *testing.T) {
	const hub, n = 0, FirstFriendsK + 10
	g := graph.New(n)
	g.AddNodes(n)
	for v := graph.NodeID(1); v < n; v++ {
		g.AddEdge(hub, v, int64(v))
		if v > 1 {
			g.AddEdge(v-1, v, int64(v))
		}
	}
	tr := NewTracker(g)
	v := Vector{ID: hub}
	if allocs := testing.AllocsPerRun(100, func() { tr.FillCC(&v) }); allocs != 0 {
		t.Fatalf("FillCC over the first %d friends allocates %v objects per call", FirstFriendsK, allocs)
	}
	if v.CC == 0 {
		t.Fatal("CC of a hub whose friends form a path is 0; the walk did not run")
	}
}

func TestStreamingMatchesBatch(t *testing.T) {
	net, sender := buildNet(
		[]sim.Time{5, 65, 125, 185, 245},
		[]bool{true, true, false, true, false},
	)
	// Batch.
	batch := Extract(net, []osn.AccountID{sender})[0]
	// Streaming: replay manually.
	tr := NewTracker(net.Graph())
	for _, ev := range net.Events() {
		tr.Update(ev)
	}
	stream := tr.VectorOf(sender)
	if batch != stream {
		t.Fatalf("batch %+v != stream %+v", batch, stream)
	}
}

func TestTrackerLiveObserver(t *testing.T) {
	// The tracker can observe a live network and stay consistent.
	net := osn.NewNetwork()
	tr := NewTracker(net.Graph())
	net.RegisterObserver(tr.Update)
	a := net.CreateAccount(osn.Female, osn.Normal, 0)
	b := net.CreateAccount(osn.Male, osn.Normal, 0)
	net.SendFriendRequest(a, b, 1)
	net.RespondFriendRequest(b, a, true, 2)
	v := tr.VectorOf(a)
	if v.OutSent != 1 || v.OutAccepted != 1 {
		t.Fatalf("live tracking wrong: %+v", v)
	}
	if tr.Tracked() != 2 {
		t.Fatalf("Tracked = %d", tr.Tracked())
	}
}

func TestLabelledDataset(t *testing.T) {
	net := osn.NewNetwork()
	s := net.CreateAccount(osn.Female, osn.Sybil, 0)
	n := net.CreateAccount(osn.Male, osn.Normal, 0)
	ds := Labelled(net, []osn.AccountID{s}, []osn.AccountID{n})
	if len(ds.Vectors) != 2 || !ds.Labels[0] || ds.Labels[1] {
		t.Fatalf("dataset = %+v", ds)
	}
	x, y := ds.Matrix()
	if len(x) != 2 || y[0] != 1 || y[1] != -1 {
		t.Fatalf("matrix shape wrong: %v %v", x, y)
	}
	if len(x[0]) != 5 {
		t.Fatalf("feature dimension = %d", len(x[0]))
	}
}

func TestPerWindowBoundaries(t *testing.T) {
	// span exactly one window: still 1 window (inclusive partial).
	if got := perWindow(6, 59, 60); got != 6 {
		t.Fatalf("perWindow(6, 59, 60) = %v", got)
	}
	if got := perWindow(6, 60, 60); got != 3 {
		t.Fatalf("perWindow(6, 60, 60) = %v", got)
	}
}

func TestTrackerOutOfOrderTimestamps(t *testing.T) {
	// Concurrent producers can deliver an account's requests out of
	// timestamp order; the activity span must be min..max, never
	// negative (a negative span used to divide by zero windows and
	// produce ±Inf frequencies).
	g := graph.New(3)
	g.AddNodes(3)
	tr := NewTracker(g)
	tr.Update(osn.Event{Type: osn.EvFriendRequest, At: 3999, Actor: 0, Target: 1})
	tr.Update(osn.Event{Type: osn.EvFriendRequest, At: 5, Actor: 0, Target: 2})
	v := tr.VectorOf(0)
	if math.IsInf(v.Freq1h, 0) || math.IsNaN(v.Freq1h) || v.Freq1h < 0 {
		t.Fatalf("Freq1h = %v with out-of-order timestamps", v.Freq1h)
	}
	// span = 3994 ticks ⇒ 67 one-hour windows ⇒ 2/67.
	if want := 2.0 / 67.0; math.Abs(v.Freq1h-want) > 1e-12 {
		t.Fatalf("Freq1h = %v, want %v", v.Freq1h, want)
	}
}
