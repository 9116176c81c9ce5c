package sim

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkScheduleStep is the engine's steady state: a queue of 64
// live events, and each operation schedules one event and fires one.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(units.Time(i+1)*units.Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(units.Time(1+i%61)*units.Nanosecond, fn)
		e.Step()
	}
}

// BenchmarkGMTimerPattern is the shape of GM's reliability layer on an
// idle ping-pong: every message arms a 2 ms ack timer, a few packet
// events about 10 µs long run, and the ack cancels the timer. The
// queue stays a handful of live events; a cancel that left its entry
// behind would grow it to hundreds of dead ones.
func BenchmarkGMTimerPattern(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timer := e.Schedule(2*units.Millisecond, fn)
		for k := 1; k <= 3; k++ {
			e.Schedule(units.Time(k)*3*units.Microsecond, fn)
		}
		for k := 0; k < 3; k++ {
			e.Step()
		}
		e.Cancel(timer)
	}
	if e.LiveCount() != 0 {
		b.Fatalf("LiveCount=%d after the pattern, want 0", e.LiveCount())
	}
}

// BenchmarkLargeQueue16k keeps 16 k events queued, about the live
// queue of the dragonfly-open workload, where nothing is cancelled:
// each operation fires the earliest and schedules a replacement at a
// pseudo-random delay. It guards the heap-position bookkeeping on a
// deep heap.
func BenchmarkLargeQueue16k(b *testing.B) {
	const n = 16 << 10
	e := NewEngine()
	fn := func() {}
	x := uint32(1)
	delay := func() units.Time {
		x = x*1664525 + 1013904223 // LCG: deterministic spread of delays
		return units.Time(1+x>>20) * units.Nanosecond
	}
	for i := 0; i < n; i++ {
		e.Schedule(delay(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Schedule(delay(), fn)
	}
}
