package sim

import (
	"testing"

	"repro/internal/units"
)

// The engine's steady state — schedule an event into a recycled slot,
// pop it, fire it — must not allocate: the slot slab and the heap
// array are warm after the first few events, and Event handles are
// plain values. This is the foundation of the hot-path allocation
// budget; see DESIGN.md §8.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(units.Time(i)*units.Nanosecond, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(units.Nanosecond, fn)
		e.Schedule(2*units.Nanosecond, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %.1f/op in steady state, want 0", allocs)
	}
}

// ScheduleArg exists so hot paths can fire a long-lived func(any)
// with a pointer argument instead of closing over the argument:
// boxing a pointer into an interface does not allocate.
func TestScheduleArgSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	sink := 0
	afn := func(a any) { *(a.(*int))++ }
	arg := &sink
	for i := 0; i < 16; i++ {
		e.ScheduleArg(units.Nanosecond, afn, arg)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleArg(units.Nanosecond, afn, arg)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleArg+Step allocates %.1f/op in steady state, want 0", allocs)
	}
}

// Cancel and re-schedule must also be allocation-free: the cancelled
// slot goes back on the free list and the lazy heap drain reuses it.
func TestCancelSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 16; i++ {
		e.Cancel(e.Schedule(units.Nanosecond, fn))
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		ev := e.Schedule(units.Nanosecond, fn)
		e.Cancel(ev)
		e.Schedule(units.Nanosecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Cancel allocates %.1f/op in steady state, want 0", allocs)
	}
}
