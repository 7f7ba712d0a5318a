package detector

import (
	"sybilwild/internal/features"
	"sybilwild/internal/osn"
)

// Classifier is anything that can judge a feature vector; both Rule
// and *Adaptive satisfy it.
type Classifier interface {
	Classify(features.Vector) bool
}

// CCGated is optionally implemented by classifiers whose verdict can
// be decided without the clustering coefficient for some vectors.
// NeedsCC is called with a vector whose CC field is not yet filled in
// (zero); returning false is a promise that Classify yields the same
// verdict for every possible CC value, which lets the pipeline skip
// the CC computation — a walk over the account's first-50-friends
// adjacency, by far the most expensive feature — entirely for that
// evaluation. Rule satisfies it: the rule is a conjunction, so once a
// counter-derived term fails the verdict is false regardless of CC.
type CCGated interface {
	NeedsCC(features.Vector) bool
}

// admits is the one gate in front of Pipeline's state: it passes
// friend requests and accepts — no feature in §2.2 consumes the rest
// of the log — unless their Actor or Target is negative. Account IDs
// index that state directly and the wire decodes any int32, so such an
// event is dropped here, before it touches anything, and counted in
// *skipped.
func admits(ev *osn.Event, skipped *int) bool {
	if ev.Type != osn.EvFriendRequest && ev.Type != osn.EvFriendAccept {
		return false
	}
	if ev.Actor < 0 || ev.Target < 0 {
		*skipped++
		return false
	}
	return true
}
