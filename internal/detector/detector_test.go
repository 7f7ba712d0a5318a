package detector

import (
	"testing"

	"sybilwild/internal/agents"
	"sybilwild/internal/features"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

func sybilVec() features.Vector {
	return features.Vector{
		OutSent: 200, OutAccepted: 50, OutAccept: 0.25,
		Freq1h: 55, CC: 0.0005,
	}
}

func normalVec() features.Vector {
	return features.Vector{
		OutSent: 12, OutAccepted: 10, OutAccept: 0.83,
		Freq1h: 0.05, CC: 0.08,
	}
}

func TestPaperRuleSeparatesPrototypes(t *testing.T) {
	r := PaperRule()
	if !r.Classify(sybilVec()) {
		t.Fatal("prototype sybil not flagged")
	}
	if r.Classify(normalVec()) {
		t.Fatal("prototype normal flagged")
	}
}

func TestRuleRequiresAllThree(t *testing.T) {
	r := PaperRule()
	v := sybilVec()
	v.OutAccept = 0.9 // looks accepted → not flagged
	if r.Classify(v) {
		t.Fatal("flagged despite high accept ratio")
	}
	v = sybilVec()
	v.Freq1h = 1
	if r.Classify(v) {
		t.Fatal("flagged despite low frequency")
	}
	v = sybilVec()
	v.CC = 0.2
	if r.Classify(v) {
		t.Fatal("flagged despite high clustering")
	}
}

func TestMinObservedGuard(t *testing.T) {
	r := PaperRule()
	v := sybilVec()
	v.OutSent = 2
	if r.Classify(v) {
		t.Fatal("flagged an account with too few requests")
	}
}

func TestBestCutPerfectSplit(t *testing.T) {
	// Sybils below 0.3, normals above 0.7.
	var xs []sample
	for i := 0; i < 10; i++ {
		xs = append(xs, sample{0.1 + float64(i)*0.01, true})
		xs = append(xs, sample{0.8 + float64(i)*0.01, false})
	}
	cut := bestCut(xs, true)
	if cut <= 0.19 || cut >= 0.8 {
		t.Fatalf("cut = %v, want within (0.19, 0.8)", cut)
	}
	// And with sybils above.
	var ys []sample
	for i := 0; i < 10; i++ {
		ys = append(ys, sample{40 + float64(i), true})
		ys = append(ys, sample{1 + float64(i)*0.1, false})
	}
	cut = bestCut(ys, false)
	if cut <= 1.9 || cut >= 40 {
		t.Fatalf("freq cut = %v", cut)
	}
}

func TestBestCutDegenerate(t *testing.T) {
	// All one class: any cut has zero error; must not panic.
	xs := []sample{{1, true}, {2, true}}
	_ = bestCut(xs, true)
	xs = []sample{{1, false}}
	_ = bestCut(xs, false)
}

func TestFitRuleOnSyntheticData(t *testing.T) {
	ds := features.Dataset{}
	for i := 0; i < 50; i++ {
		v := sybilVec()
		v.Freq1h += float64(i % 7)
		v.OutAccept += float64(i%5) * 0.01
		ds.Vectors = append(ds.Vectors, v)
		ds.Labels = append(ds.Labels, true)
		n := normalVec()
		n.Freq1h += float64(i%3) * 0.01
		ds.Vectors = append(ds.Vectors, n)
		ds.Labels = append(ds.Labels, false)
	}
	r := FitRule(ds, PaperRule())
	c := r.Evaluate(ds)
	if c.Accuracy() != 1 {
		t.Fatalf("fitted rule accuracy = %v on separable data\nrule: %v", c.Accuracy(), r)
	}
}

func TestFrequencySweep(t *testing.T) {
	ds := features.Dataset{}
	// Sybils at 30..70/h, normals at ≤1/h.
	for i := 0; i < 40; i++ {
		ds.Vectors = append(ds.Vectors, features.Vector{Freq1h: 30 + float64(i)})
		ds.Labels = append(ds.Labels, true)
		ds.Vectors = append(ds.Vectors, features.Vector{Freq1h: float64(i%10) * 0.1})
		ds.Labels = append(ds.Labels, false)
	}
	pts := FrequencySweep(ds, []float64{10, 40, 100})
	if pts[0].TPR != 1 || pts[0].FPR != 0 {
		t.Fatalf("cut 10: %+v", pts[0])
	}
	if pts[1].TPR != 0.75 || pts[1].FPR != 0 {
		t.Fatalf("cut 40: %+v (want TPR 0.75: 30..39 missed)", pts[1])
	}
	if pts[2].TPR != 0 {
		t.Fatalf("cut 100: %+v", pts[2])
	}
}

func TestAdaptiveTracksDrift(t *testing.T) {
	a := NewAdaptive(PaperRule(), 200, 20)
	// Phase 1: classic sybils at ~55/h. Audit them in.
	for i := 0; i < 40; i++ {
		v := sybilVec()
		a.Audit(v, true)
		n := normalVec()
		a.Audit(n, false)
	}
	if !a.Classify(sybilVec()) {
		t.Fatal("phase-1 sybil missed")
	}
	// Phase 2: sybils drift down to ~8/h — below the paper's cut of 20.
	drifted := sybilVec()
	drifted.Freq1h = 8
	if a.Classify(drifted) {
		t.Fatal("drifted sybil should be missed before re-fit")
	}
	for i := 0; i < 200; i++ {
		v := drifted
		v.Freq1h = 8 + float64(i%4)
		a.Audit(v, true)
		n := normalVec()
		a.Audit(n, false)
	}
	if !a.Classify(drifted) {
		t.Fatalf("adaptive rule did not follow drift: %v", a.Rule)
	}
	// Normals still unflagged.
	if a.Classify(normalVec()) {
		t.Fatal("normal flagged after drift refit")
	}
}

func TestAdaptiveWindowBound(t *testing.T) {
	a := NewAdaptive(PaperRule(), 50, 10)
	for i := 0; i < 500; i++ {
		a.Audit(sybilVec(), true)
		a.Audit(normalVec(), false)
	}
	if a.AuditCount() > 50 {
		t.Fatalf("window exceeded: %d", a.AuditCount())
	}
}

func TestAdaptiveSingleClassNoRefit(t *testing.T) {
	a := NewAdaptive(PaperRule(), 100, 5)
	before := a.Rule
	for i := 0; i < 30; i++ {
		a.Audit(normalVec(), false)
	}
	if a.Rule != before {
		t.Fatal("rule changed with single-class audits")
	}
}

// TestMonitorOnLiveCampaign is the end-to-end integration test: run
// the full agent simulation with the real-time pipeline attached and a
// ban as the flag action, then check detection quality against ground
// truth — the pipeline the paper deployed on Renren. The ban cannot
// run inside the flag hook: it emits an event the network delivers
// straight back to the pipeline, whose lock the hook holds. So the hook
// only queues the flag, and a second observer, registered after the
// pipeline's, applies the queued bans — still within the dispatch of
// the request that triggered them.
func TestMonitorOnLiveCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	pop := agents.NewPopulation(21, agents.DefaultParams())
	pop.Bootstrap(4000)

	// Fit thresholds on a held-out pilot campaign first (the paper
	// calibrated on ground truth before deployment).
	pilot := agents.NewPopulation(22, agents.DefaultParams())
	pilot.Bootstrap(4000)
	pilot.LaunchSybils(50, 100*sim.TicksPerHour)
	pilot.RunFor(400 * sim.TicksPerHour)
	pilotDS := features.Labelled(pilot.Net, pilot.Sybils, pilot.Normals)
	rule := FitRule(pilotDS, PaperRule())

	var pending []Flag
	m := NewPipeline(rule, pop.Net.Graph(), WithCheckEvery(5),
		WithFlagHook(func(f Flag) { pending = append(pending, f) }))
	pop.Net.RegisterObserver(m.Observe)
	pop.Net.RegisterObserver(func(osn.Event) {
		for len(pending) > 0 {
			f := pending[0]
			pending = pending[1:]
			pop.Net.Ban(f.ID, f.At)
		}
	})
	// The reference watches the same network, starting from the
	// background friendships already in place.
	ref := newReference(rule, 5)
	for _, e := range pop.Net.Graph().Edges() {
		ref.befriend(e.U, e.V)
	}
	pop.Net.RegisterObserver(ref.observe)

	pop.LaunchSybils(50, 100*sim.TicksPerHour)
	pop.RunFor(400 * sim.TicksPerHour)

	caught := 0
	for _, id := range pop.Sybils {
		if m.Flagged(id) {
			caught++
		}
	}
	fp := 0
	for _, id := range pop.Normals {
		if m.Flagged(id) {
			fp++
		}
	}
	if frac := float64(caught) / float64(len(pop.Sybils)); frac < 0.80 {
		t.Errorf("real-time detection rate = %.2f, want ≥0.80", frac)
	}
	if frac := float64(fp) / float64(len(pop.Normals)); frac > 0.02 {
		t.Errorf("real-time false positive rate = %.4f, want ≤0.02", frac)
	}
	// Bans must actually have happened.
	banned := 0
	for _, id := range pop.Sybils {
		if pop.Net.Account(id).Banned {
			banned++
		}
	}
	if banned != caught {
		t.Errorf("banned %d != flagged %d", banned, caught)
	}
	requireMatchesReference(t, "live campaign", m.Flags(), ref)
}

// TestMonitorFlagsOnce: the deprecated NewMonitor is a pipeline whose
// hook fires once per account with the triggering request's time.
func TestMonitorFlagsOnce(t *testing.T) {
	calls := 0
	r := Rule{OutAcceptMax: 2, FreqMin: -1, CCMax: 2, MinObserved: 0} // flags everything
	net := osn.NewNetwork()
	m := NewMonitor(r, net.Graph(), func(_ osn.AccountID, at sim.Time) {
		calls++
		if at != 1 {
			t.Errorf("flagged at %d, want the first request's time 1", at)
		}
	})
	a := net.CreateAccount(osn.Female, osn.Sybil, 0)
	b := net.CreateAccount(osn.Male, osn.Normal, 0)
	c := net.CreateAccount(osn.Male, osn.Normal, 0)
	net.RegisterObserver(m.Observe)
	net.SendFriendRequest(a, b, 1)
	net.SendFriendRequest(a, c, 2)
	if calls != 1 {
		t.Fatalf("OnFlag calls = %d, want 1", calls)
	}
	if !m.Flagged(a) || m.FlaggedCount() != 1 {
		t.Fatal("flag state wrong")
	}
	if len(m.FlaggedIDs()) != 1 || m.FlaggedIDs()[0] != a {
		t.Fatal("FlaggedIDs wrong")
	}
}
