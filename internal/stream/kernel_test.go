package stream

import (
	"testing"
	"time"
)

// TestOfferRule is the kernel's offer decision. A save is due once the
// interval has passed since the last save was tried, refused or not,
// and only with Handoff: no broker waits on a worker's acks, so the
// feed position alone never forces one. A re-keyed cut is offered at
// once.
func TestOfferRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// adopted is a handoff worker that adopted snaps snapshots at 100
	// and saves every minute.
	adopted := func(snaps int) *Kernel {
		k := &Kernel{Part: 1, Parts: 3, Handoff: true, Every: time.Minute}
		k.admitted("s", 101, 0, 100, snaps, t0)
		return k
	}
	apply := func(k *Kernel, through uint64) *Kernel {
		k.batch(nil, nil, through)
		return k
	}
	save := func(k *Kernel, at time.Duration, confirmed bool) *Kernel {
		if k.Save(t0.Add(at)) && confirmed {
			k.Offered(k.Applied())
		}
		return k
	}
	plain := &Kernel{Every: time.Minute}
	plain.admitted("s", 1, 0, 0, 0, t0)
	for _, tc := range []struct {
		name string
		k    *Kernel
		now  time.Duration // since t0
		want bool
	}{
		{"the interval fires", apply(adopted(1), 101), time.Minute, true},
		{"before the interval", apply(adopted(1), 101), time.Minute - 1, false},
		{"far past the held state, before the interval", apply(adopted(1), 1<<20), time.Minute - 1, false},
		{"a refused offer waits a whole interval", apply(save(apply(adopted(1), 200), time.Minute, false), 1<<20), 2*time.Minute - 1, false},
		{"a refused offer is retried an interval later", apply(save(apply(adopted(1), 200), time.Minute, false), 1<<20), 2 * time.Minute, true},
		{"a confirmed offer restarts the interval", apply(save(apply(adopted(1), 200), time.Minute, true), 300), 2*time.Minute - 1, false},
		{"without Handoff no save is due", apply(plain, 1<<20), time.Hour, false},
	} {
		if got := tc.k.Due(t0.Add(tc.now)); got != tc.want {
			t.Errorf("%s: Due = %v, want %v", tc.name, got, tc.want)
		}
	}
	if cut := adopted(3); !cut.Cut() || save(cut, 0, true).Cut() || adopted(1).Cut() {
		t.Error("a re-keyed cut is offered at once, and only once; an adopted snapshot is not")
	}
}

// TestLostResumesAtDurableState is the kernel's resume point after a
// lost connection: the newest state the broker holds plus one — a
// confirmed offer, else the adopted snapshot — and the client's cursor
// plus one only when the broker holds no state of the worker. A resume
// acks everything below its start, so one past the durable state would
// ack events a successor adopting that state still needs.
func TestLostResumesAtDurableState(t *testing.T) {
	const cursor = 500
	for _, tc := range []struct {
		name    string
		adopted uint64 // the snapshot adopted at admission (0: none)
		offered uint64 // the newest confirmed offer (0: none)
		want    uint64
	}{
		{"a confirmed offer", 0, 300, 301},
		{"a confirmed offer past the adopted snapshot", 100, 300, 301},
		{"the adopted snapshot, nothing offered since", 100, 0, 101},
		{"no durable state", 0, 0, cursor + 1},
	} {
		k := &Kernel{Handoff: true, Every: time.Minute}
		snaps := 0
		if tc.adopted > 0 {
			snaps = 1
		}
		k.admitted("s", tc.adopted+1, 0, tc.adopted, snaps, time.Time{})
		k.batch(nil, nil, cursor)
		if tc.offered > 0 {
			k.Offered(tc.offered)
		}
		k.Lost(cursor)
		if h := k.hello(); h.Session != "s" || h.Resume != tc.want {
			t.Errorf("%s: hello resumes session %q at %d, want s at %d", tc.name, h.Session, h.Resume, tc.want)
		}
	}
}
