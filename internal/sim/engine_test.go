package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*units.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*units.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*units.Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fired order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30*units.Nanosecond {
		t.Errorf("Now = %v, want 30ns", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", e.Fired())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*units.Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of order at %d: got %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []units.Time
	var tick func()
	n := 0
	tick = func() {
		ticks = append(ticks, e.Now())
		n++
		if n < 5 {
			e.Schedule(units.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		want := units.Time(i) * units.Microsecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestZeroDelayRunsAfterCurrentInstantQueue(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(0, func() {
		got = append(got, "a")
		e.Schedule(0, func() { got = append(got, "c") })
	})
	e.Schedule(0, func() { got = append(got, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(units.Nanosecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Live(ev) {
		t.Error("Live = true after Cancel")
	}
	// Cancelling again, or cancelling the zero handle, must not panic.
	e.Cancel(ev)
	e.Cancel(NoEvent)
}

func TestEventHandleGoesStaleAfterFire(t *testing.T) {
	e := NewEngine()
	count := 0
	first := e.Schedule(units.Nanosecond, func() { count++ })
	if at, ok := e.EventTime(first); !ok || at != units.Nanosecond {
		t.Errorf("EventTime = %v,%v, want 1ns,true", at, ok)
	}
	e.Run()
	// The slot behind `first` is free now; the next Schedule reuses it.
	second := e.Schedule(units.Nanosecond, func() { count++ })
	// Cancelling the stale handle must not kill the new event.
	e.Cancel(first)
	if e.Live(first) {
		t.Error("stale handle reports live")
	}
	if !e.Live(second) {
		t.Error("cancelling a stale handle cancelled the reused slot")
	}
	e.Run()
	if count != 2 {
		t.Errorf("fired %d events, want 2", count)
	}
}

func TestScheduleArg(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(v any) { got = append(got, v.(int)) }
	e.ScheduleArg(2*units.Nanosecond, record, 2)
	e.ScheduleArg(units.Nanosecond, record, 1)
	ev := e.ScheduleArgAt(3*units.Nanosecond, record, 3)
	e.Cancel(ev)
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []units.Time
	for _, d := range []units.Time{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d*units.Microsecond, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(3 * units.Microsecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*units.Microsecond {
		t.Errorf("Now = %v, want 3us", e.Now())
	}
	if e.LiveCount() != 2 {
		t.Errorf("LiveCount = %d, want 2", e.LiveCount())
	}
	// Resume to the end.
	e.Run()
	if len(fired) != 5 {
		t.Errorf("after Run fired %d, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(7 * units.Microsecond)
	if e.Now() != 7*units.Microsecond {
		t.Errorf("Now = %v, want 7us", e.Now())
	}
}

// TestScheduleIntoGapAfterRunUntil pins the order when RunUntil stops
// short of the next event and later schedules land in the gap between
// the clock and the old head. Ties at the old head's instant still
// fire in schedule order, and the path allocates nothing once the
// buckets are warm.
func TestScheduleIntoGapAfterRunUntil(t *testing.T) {
	e := NewEngine()
	type firing struct {
		id int
		at units.Time
	}
	var got []firing
	record := func(a any) { got = append(got, firing{a.(int), e.Now()}) }
	at := func(ns units.Time, id int) Event { return e.ScheduleArgAt(ns*units.Nanosecond, record, id) }
	at(1000, 1)
	tie := at(1000, 2)
	at(5000, 3)
	at(1000, 4)
	e.RunUntil(100 * units.Nanosecond)
	if len(got) != 0 || e.Now() != 100*units.Nanosecond {
		t.Fatalf("RunUntil fired %v, clock %v; want nothing fired and the clock at 100ns", got, e.Now())
	}
	e.Cancel(tie)
	at(500, 5)  // into the gap
	at(1000, 6) // ties with the old head: after 1 and 4
	at(100, 7)  // at the clock
	gap := at(500, 8)
	at(1001, 9)
	e.Cancel(gap)
	e.Run()
	want := []firing{{7, 100}, {5, 500}, {1, 1000}, {4, 1000}, {6, 1000}, {9, 1001}, {3, 5000}}
	for i := range want {
		want[i].at *= units.Nanosecond
	}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}

	fn := func() {}
	cycle := func() {
		e.Schedule(2*units.Microsecond, fn)
		e.Schedule(2*units.Microsecond, fn)
		e.RunFor(units.Microsecond)
		e.Schedule(500*units.Nanosecond, fn)
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("schedule into the gap allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	e.RunFor(2 * units.Microsecond)
	e.RunFor(3 * units.Microsecond)
	if e.Now() != 5*units.Microsecond {
		t.Errorf("Now = %v, want 5us", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(units.Time(i)*units.Nanosecond, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Errorf("fired %d events before stop, want 4", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Errorf("fired %d total, want 10", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5*units.Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.ScheduleAt(units.Nanosecond, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil fn")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventAt(); ok {
		t.Error("NextEventAt on empty queue reported ok")
	}
	ev := e.Schedule(9*units.Nanosecond, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 9*units.Nanosecond {
		t.Errorf("NextEventAt = %v,%v", at, ok)
	}
	e.Cancel(ev)
	if _, ok := e.NextEventAt(); ok {
		t.Error("NextEventAt saw cancelled event")
	}
}

// Property: however events are scheduled, they fire in nondecreasing
// time order and same-time events fire in scheduling order.
func TestFiringOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine()
		type rec struct {
			at  units.Time
			seq int
		}
		var fired []rec
		for i, b := range raw {
			at := units.Time(b%16) * units.Nanosecond
			i := i
			e.Schedule(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		ordered := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
		return ordered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two engines fed the same schedule fire identically.
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) []units.Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []units.Time
		var add func(depth int)
		add = func(depth int) {
			fired = append(fired, e.Now())
			if depth < 3 {
				e.Schedule(units.Time(rng.Intn(100))*units.Nanosecond, func() { add(depth + 1) })
			}
		}
		for i := 0; i < 20; i++ {
			e.Schedule(units.Time(rng.Intn(50))*units.Nanosecond, func() { add(0) })
		}
		e.Run()
		return fired
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
