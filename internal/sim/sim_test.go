package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestFIFOWithinSameTick(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	for e.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick order broken: %v", got)
		}
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	e.Schedule(100, func() {})
	e.Step()
	if e.Now() != 100 {
		t.Fatalf("Now = %d", e.Now())
	}
	fired := int64(-1)
	e.Schedule(50, func() { fired = e.Now() })
	for e.Step() {
	}
	if fired != 100 {
		t.Fatalf("past event fired at %d, want 100", fired)
	}
}

func TestAfter(t *testing.T) {
	var e Engine
	e.Schedule(10, func() {
		e.After(5, func() {
			if e.Now() != 15 {
				t.Errorf("After fired at %d", e.Now())
			}
		})
	})
	for e.Step() {
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	var e Engine
	ran := false
	e.After(-10, func() { ran = true })
	for e.Step() {
	}
	if !ran || e.Now() != 0 {
		t.Fatalf("negative After mishandled: ran=%v now=%d", ran, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	n := e.Run(12)
	if n != 2 || len(got) != 2 {
		t.Fatalf("ran %d events: %v", n, got)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12 (clock advances to until)", e.Now())
	}
	if n := e.Run(100); n != 2 || len(got) != 4 {
		t.Fatalf("ran %d of the 2 pending events: %v", n, got)
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.Schedule(0, tick)
	steps := 0
	for e.Step() {
		steps++
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if e.Now() != 99 {
		t.Fatalf("Now = %d", e.Now())
	}
	if steps != 100 {
		t.Fatalf("executed %d events, want 100", steps)
	}
}

func TestTimeMonotoneProperty(t *testing.T) {
	f := func(times []int16) bool {
		var e Engine
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			if at < 0 {
				at = -at
			}
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		for e.Step() {
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTickConstants(t *testing.T) {
	if TicksPerHour != 60 || TicksPerDay != 1440 {
		t.Fatalf("tick constants changed: hour=%d day=%d", TicksPerHour, TicksPerDay)
	}
}
