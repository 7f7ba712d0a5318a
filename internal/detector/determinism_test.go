package detector

import (
	"fmt"
	"reflect"
	"testing"

	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
)

// TestIngestVerdictIgnoresFutureEdges is the regression test for the
// run-ahead verdict race: account 9 bursts 25 requests at one tick
// while friendless, and only afterwards gains two friends who are
// already friends with each other (clustering coefficient 1). Its
// burst must be judged against the graph as of the triggering request
// — no friends, CC 0, flagged — however the feed is chunked. A
// pipeline that grows the graph a whole batch ahead of evaluation sees
// the closed triangle when the 28 events arrive as one batch, and lets
// the account go.
func TestIngestVerdictIgnoresFutureEdges(t *testing.T) {
	events := []osn.Event{{Type: osn.EvFriendAccept, At: 1, Actor: 1, Target: 2}}
	for i := 0; i < 25; i++ {
		events = append(events, osn.Event{Type: osn.EvFriendRequest, At: 5, Actor: 9, Target: osn.AccountID(100 + i)})
	}
	events = append(events,
		osn.Event{Type: osn.EvFriendAccept, At: 6, Actor: 1, Target: 9},
		osn.Event{Type: osn.EvFriendAccept, At: 7, Actor: 2, Target: 9})

	for _, chunk := range []int{1, 7, len(events)} {
		p := NewPipeline(PaperRule(), nil, WithGraphReconstruction())
		feedChunks(p, events, chunk)
		p.Close()
		if cc := p.Graph().ClusteringFirstK(9, features.FirstFriendsK); cc != 1 {
			t.Fatalf("chunk=%d: account 9 ends with CC %v, want 1 (the feed must close its triangle)", chunk, cc)
		}
		flags := p.Flags()
		if len(flags) != 1 || flags[0].ID != 9 {
			t.Fatalf("chunk=%d: flagged %v, want exactly account 9", chunk, flags)
		}
		if flags[0].Vector.CC != 0 {
			t.Fatalf("chunk=%d: account 9 judged with CC %v — edges from its own future", chunk, flags[0].Vector.CC)
		}
	}
}

// ccWitness wraps a Rule and records what the clustering-coefficient
// term did, so the determinism matrix can prove it was exercised. CC
// is only filled in when NeedsCC said the walk was needed, so a
// non-zero CC reaching Classify is a walk that found triangles.
type ccWitness struct {
	Rule
	nonZero int // evaluations whose CC walk returned > 0
	vetoed  int // evaluations the CC term alone kept from flagging
}

func (w *ccWitness) Classify(v features.Vector) bool {
	if v.CC > 0 {
		w.nonZero++
	}
	flag := w.Rule.Classify(v)
	if !flag && w.Rule.NeedsCC(v) {
		w.vetoed++
	}
	return flag
}

// monitorOverGrownGraph is the oracle: the serial Monitor over a graph
// grown per event — node range, then the accept edge, immediately
// before the event is observed.
func monitorOverGrownGraph(c Classifier, events []osn.Event) []osn.AccountID {
	g := graph.New(0)
	m := NewMonitor(c, g, nil)
	for _, ev := range events {
		if ev.Type == osn.EvFriendRequest || ev.Type == osn.EvFriendAccept {
			for hi := max(ev.Actor, ev.Target); graph.NodeID(g.NumNodes()) <= hi; {
				g.AddNode()
			}
			if ev.Type == osn.EvFriendAccept && ev.Actor != ev.Target {
				g.AddEdge(ev.Actor, ev.Target, ev.At)
			}
		}
		m.Observe(ev)
	}
	return sortedIDs(m.FlaggedIDs())
}

// TestVerdictsAreAFunctionOfTheFeed is the determinism matrix: for
// every campaign seed, chunking and cluster size, K partitioned
// pipelines fed their osn.PartitionDelivers slices flag in union
// exactly what the serial Monitor flags over a per-event-grown graph —
// each account by its owner only. The rule is loose on the counter
// terms and waits for 200 requests, by which time the campaign's
// Sybils have been accepted by normals who know each other, so their
// clustering coefficient hovers around CCMax and is the deciding term
// for hundreds of evaluations — one edge early or late changes the
// flag set. The test fails as vacuous otherwise.
func TestVerdictsAreAFunctionOfTheFeed(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	rule := Rule{OutAcceptMax: 0.9, FreqMin: 2, CCMax: 0.03, MinObserved: 200}
	var witness ccWitness
	for seed := int64(1); seed <= int64(seeds); seed++ {
		events := campaignLog(t, seed).Net.Events()
		oracle := ccWitness{Rule: rule}
		want := monitorOverGrownGraph(&oracle, events)
		if len(want) == 0 {
			t.Fatalf("seed %d: monitor flagged nothing; the matrix is vacuous", seed)
		}
		witness.nonZero += oracle.nonZero
		witness.vetoed += oracle.vetoed

		for _, k := range []int{1, 2, 3} {
			slices := make([][]osn.Event, k)
			for part := range slices {
				slices[part] = partitionSlice(events, part, k)
			}
			for _, chunk := range []int{1, 256, len(events)} {
				label := fmt.Sprintf("seed=%d K=%d chunk=%d", seed, k, chunk)
				var got []osn.AccountID
				for part, slice := range slices {
					p := NewPipeline(rule, nil, WithGraphReconstruction(), WithPartition(part, k))
					feedChunks(p, slice, chunk)
					p.Close()
					for _, id := range p.FlaggedIDs() {
						if osn.Partition(id, k) != part {
							t.Fatalf("%s: partition %d flagged account %d, owned by %d", label, part, id, osn.Partition(id, k))
						}
						got = append(got, id)
					}
				}
				if got = sortedIDs(got); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: flag set differs from the serial monitor's:\n got %v\nwant %v", label, got, want)
				}
			}
		}
	}
	if witness.nonZero == 0 || witness.vetoed == 0 {
		t.Fatalf("CC term not exercised (%d non-zero walks, %d CC-decided verdicts); the matrix is vacuous",
			witness.nonZero, witness.vetoed)
	}
	t.Logf("%d seeds: %d evaluations walked to a non-zero CC, %d were decided by CC alone",
		seeds, witness.nonZero, witness.vetoed)
}
