package stream

import (
	"testing"
	"time"
)

// TestOfferLagRule is the kernel's offer decision. The lag a worker
// derives from the tail its broker's welcome reports is half the tail,
// held to two thirds of the tail less one batch, and none for a
// spooled broker's 0. A save is due once the interval has passed, or a
// lag past the state the broker holds and, after a refused offer, half
// a lag past that attempt; a re-keyed cut is offered at once.
func TestOfferLagRule(t *testing.T) {
	for _, tc := range []struct{ window, lag int }{
		{0, 0},
		{64, 1},
		{512, 170},
		{DefaultReplayBuffer, 8192},
	} {
		if got := offerLag(tc.window); got != tc.lag {
			t.Errorf("offerLag(%d) = %d, want %d", tc.window, got, tc.lag)
		}
	}

	t0 := time.Unix(1000, 0)
	// adopted is a handoff worker that adopted snaps snapshots at 100
	// from a broker whose welcome reported window (2048: lag 1024), and
	// saves every minute.
	adopted := func(window, snaps int) *Kernel {
		k := &Kernel{Part: 1, Parts: 3, Handoff: true, Every: time.Minute}
		k.admitted("s", 101, 0, window, 100, snaps, t0)
		return k
	}
	apply := func(k *Kernel, through uint64) *Kernel {
		k.batch(nil, nil, through)
		return k
	}
	save := func(k *Kernel, confirmed bool) *Kernel {
		if k.Save(t0) && confirmed {
			k.Offered(k.Applied())
		}
		return k
	}
	plain := &Kernel{Every: time.Minute}
	plain.admitted("s", 1, 0, 2048, 0, 0, t0)
	for _, tc := range []struct {
		name string
		k    *Kernel
		now  time.Duration // since t0
		want bool
	}{
		{"the interval fires", apply(adopted(2048, 1), 101), time.Minute, true},
		{"before the interval", apply(adopted(2048, 1), 101), time.Minute - 1, false},
		{"the lag fires", apply(adopted(2048, 1), 1124), 0, true},
		{"a sequence short of the lag", apply(adopted(2048, 1), 1123), 0, false},
		{"a refused offer is not retried before half a lag", apply(save(apply(adopted(2048, 1), 1124), false), 1635), 0, false},
		{"a refused offer is retried half a lag later", apply(save(apply(adopted(2048, 1), 1124), false), 1636), 0, true},
		{"a confirmed offer waits a whole lag", apply(save(apply(adopted(2048, 1), 1124), true), 2147), 0, false},
		{"a lag past the confirmed offer", apply(save(apply(adopted(2048, 1), 1124), true), 2148), 0, true},
		{"a spooled broker's worker has no lag", apply(adopted(0, 1), 1<<20), time.Minute - 1, false},
		{"without Handoff no save is due", apply(plain, 1<<20), time.Hour, false},
	} {
		if got := tc.k.Due(t0.Add(tc.now)); got != tc.want {
			t.Errorf("%s: Due = %v, want %v", tc.name, got, tc.want)
		}
	}
	if cut := adopted(2048, 3); !cut.Cut() || save(cut, true).Cut() || adopted(2048, 1).Cut() {
		t.Error("a re-keyed cut is offered at once, and only once; an adopted snapshot is not")
	}
}
