package sim

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	var e Engine
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1024), nop)
		if i%1024 == 1023 {
			for e.Step() {
			}
		}
	}
	b.StopTimer()
	for e.Step() {
	}
}
