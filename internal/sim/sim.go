// Package sim provides the discrete-event simulation engine that
// drives the Renren-substitute OSN. Events execute in strict
// (time, insertion-sequence) order, so a run is fully deterministic
// given deterministic event bodies.
//
// Simulated time is measured in ticks; the conventional resolution used
// throughout sybilwild is one tick per simulated minute (TicksPerHour).
package sim

import "container/heap"

// Time is simulated time in ticks.
type Time = int64

// Conventional tick resolution: one tick per simulated minute.
const (
	TicksPerMinute Time = 1
	TicksPerHour   Time = 60 * TicksPerMinute
	TicksPerDay    Time = 24 * TicksPerHour
)

// Engine is a discrete-event scheduler. The zero value is ready to use.
// Engine is not safe for concurrent use; the simulation is single
// threaded by design so runs replay exactly.
type Engine struct {
	pq  eventHeap
	now Time
	seq uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs do at absolute time at. Scheduling in the past (before
// Now) clamps to Now: the event runs at the current time, after events
// already queued for that time.
func (e *Engine) Schedule(at Time, do func()) {
	if at < e.now {
		at = e.now
	}
	heap.Push(&e.pq, event{at: at, seq: e.seq, do: do})
	e.seq++
}

// After runs do d ticks from now.
func (e *Engine) After(d Time, do func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, do)
}

// Step executes the single earliest pending event and reports whether
// one existed.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	e.now = ev.at
	ev.do()
	return true
}

// Run executes events until the queue is empty or the next event is
// scheduled strictly after until. The clock ends at min(until, last
// event time ≥ now). It returns the number of events executed.
func (e *Engine) Run(until Time) int {
	ran := 0
	for len(e.pq) > 0 && e.pq[0].at <= until {
		e.Step()
		ran++
	}
	if e.now < until {
		e.now = until
	}
	return ran
}

type event struct {
	at  Time
	seq uint64
	do  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
