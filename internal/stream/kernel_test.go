package stream

import (
	"cmp"
	"errors"
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

// TestRedialReadsTheKernelsTable drives every broker client's one
// redial loop (Redial) with a kernel's refusal table (Kernel.Refused)
// and a scripted dial, for each refusal class, built as the broker's
// replies are (rejected), and a plain transport error, in each phase of
// a subscriber: a worker starting with Handoff, a fresh SubscribeBatch
// (no Handoff), a spare and an admitted session. It counts the dials.
// A wait redials after a poll and resets the failure count, so a wait
// between two runs of retries failed dials still ends admitted. An end
// returns at the refusal. A retry counts as a failed dial: retries+1
// of them in a row give up with the last error, retries do not.
func TestRedialReadsTheKernelsTable(t *testing.T) {
	const retries = 2
	const transport = ""
	failure := func(class string) error {
		switch class {
		case transport:
			return errors.New("stream: dial: connection refused")
		case classRebalanced:
			return rejected(frameHello, &frame{Class: class, Parts: 2, NParts: 3, Barrier: 9})
		}
		return rejected(frameHello, refusal(class, class+" refusal"))
	}
	phases := map[string]func() *Kernel{
		"starting": func() *Kernel { return &Kernel{Parts: 2, Handoff: true} },
		"fresh":    func() *Kernel { return &Kernel{Parts: 2} },
		"spare": func() *Kernel {
			k := &Kernel{Parts: 2, Handoff: true}
			k.Refused(failure(classHeld))
			return k
		},
		"admitted": func() *Kernel {
			k := &Kernel{Parts: 2, Handoff: true}
			k.admitted("s", 1, 0, 0, 0, time.Time{})
			return k
		},
	}
	const wait, retry = "wait", "retry"
	for _, tc := range []struct {
		phase, class string
		want         string // wait, retry, or end: the error the end wraps
		end          error
	}{
		{"starting", classHeld, wait, nil},
		{"starting", classCutPending, wait, nil},
		{"starting", classGap, "", ErrGap},
		{"starting", classRebalanced, "", ErrRebalanced},
		{"starting", classClosing, retry, nil},
		{"starting", transport, retry, nil},
		{"fresh", classHeld, wait, nil},
		{"fresh", classCutPending, wait, nil},
		{"fresh", classGap, "", ErrGap},
		{"fresh", classRebalanced, "", ErrRebalanced},
		{"fresh", classClosing, retry, nil},
		{"fresh", transport, retry, nil},
		{"spare", classHeld, wait, nil},
		{"spare", classCutPending, wait, nil},
		{"spare", classGap, "", ErrGap},
		{"spare", classRebalanced, "", ErrRebalanced},
		{"spare", classClosing, "", ErrClosed}, // the feed ended while it waited
		{"spare", transport, retry, nil},
		{"admitted", classHeld, "", ErrHeld},
		{"admitted", classCutPending, retry, nil},
		{"admitted", classGap, "", ErrGap},
		{"admitted", classRebalanced, "", ErrRebalanced},
		{"admitted", classClosing, retry, nil},
		{"admitted", transport, retry, nil},
	} {
		t.Run(tc.phase+"/"+cmp.Or(tc.class, "transport"), func(t *testing.T) {
			t.Parallel()
			// run redials k through script's failures, then a dial that
			// succeeds, and returns the result and the dials made.
			run := func(k *Kernel, script ...error) (dials int, err error) {
				got, err := Redial(func() (int, error) {
					if dials++; dials <= len(script) {
						return 0, script[dials-1]
					}
					return dials, nil
				}, k.Refused, retries, nil)
				if err == nil && got != dials {
					t.Fatalf("Redial returned dial %d's result after %d dials", got, dials)
				}
				return dials, err
			}
			refused, down := failure(tc.class), failure(transport)
			repeat := func(err error, n int) (errs []error) {
				for ; n > 0; n-- {
					errs = append(errs, err)
				}
				return errs
			}
			switch tc.want {
			case wait:
				script := append(append(repeat(down, retries), refused), repeat(down, retries)...)
				if dials, err := run(phases[tc.phase](), script...); err != nil || dials != 2*retries+2 {
					t.Errorf("a wait between two runs of %d failed dials: %d dials, %v; want admitted on dial %d", retries, dials, err, 2*retries+2)
				}
			case retry:
				if dials, err := run(phases[tc.phase](), repeat(refused, retries)...); err != nil || dials != retries+1 {
					t.Errorf("%d retried refusals: %d dials, %v; want admitted on dial %d", retries, dials, err, retries+1)
				}
				if dials, err := run(phases[tc.phase](), repeat(refused, retries+1)...); err != refused || dials != retries+1 {
					t.Errorf("%d retried refusals: %d dials, %v; want to give up with %v after %d", retries+1, dials, err, refused, retries+1)
				}
			default:
				if dials, err := run(phases[tc.phase](), down, refused); !errors.Is(err, tc.end) || dials != 2 {
					t.Errorf("a failed dial, then the refusal: %d dials, %v; want an end wrapping %v at dial 2", dials, err, tc.end)
				}
			}
		})
	}
}

// TestRedialQuitCutsItsSleep: a closed quit ends the redial loop in the
// sleep after a failed dial, a backoff or a wait's poll alike, with the
// dial's error. The dial after that sleep would succeed.
func TestRedialQuitCutsItsSleep(t *testing.T) {
	quit := make(chan struct{})
	close(quit)
	for _, fail := range []error{
		errors.New("stream: dial: connection refused"),                      // retried after a backoff
		rejected(frameHello, refusal(classHeld, "held by another session")), // waited out by a starting worker
	} {
		dials := 0
		_, err := Redial(func() (int, error) {
			if dials++; dials > 1 {
				return dials, nil
			}
			return 0, fail
		}, (&Kernel{Parts: 2}).Refused, 100, quit)
		if err != fail || dials != 1 {
			t.Errorf("quit closed, dial failing with %v: %d dials, %v; want one, cut short with its error", fail, dials, err)
		}
	}
}
