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

// BenchmarkLargeQueue16k keeps 16 k events queued, where nothing is
// cancelled: each operation fires the earliest and schedules a
// replacement at a pseudo-random delay of up to 4 µs. 16 k is
// dragonfly-open's mean queue, but only ~1 k of that queue is live
// traffic; BenchmarkFarResidents models the rest.
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

// BenchmarkFarResidents is dragonfly-open's queue: an open-loop plan
// pre-schedules every flow start, so 16 k far-future events spread over
// 300 µs sit behind ~1 k active packet events that re-arm at delays
// from 1 ns to 1 µs. Each operation fires the earliest event, which
// schedules its successor: an active event re-arms, a resident is
// replaced 300 µs ahead, so the queue keeps its shape.
func BenchmarkFarResidents(b *testing.B) {
	const residents, active = 16 << 10, 1 << 10
	const window = 300 * units.Microsecond
	e := NewEngine()
	x := uint32(1)
	var near, far func()
	near = func() {
		x = x*1664525 + 1013904223 // LCG: deterministic spread of delays
		e.Schedule(units.Time(1+x>>22)*units.Nanosecond, near)
	}
	far = func() { e.Schedule(window, far) }
	for i := 0; i < residents; i++ {
		e.Schedule(window*units.Time(i)/residents, far)
	}
	for i := 0; i < active; i++ {
		near()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
