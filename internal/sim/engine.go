// Package sim implements the deterministic discrete-event engine that
// drives every model in the simulator: the wormhole fabric, the LANai
// NIC, the MCP firmware, and the GM host layer.
//
// The engine maintains a picosecond-resolution clock and a priority
// queue of events. Events scheduled for the same instant fire in the
// order they were scheduled, which makes every simulation run
// reproducible byte-for-byte given the same inputs.
//
// The queue is a radix heap over a slab of event slots with a
// free-list. Keys never fall below the clock, so an event is filed in
// bucket bits.Len64(at XOR base), where base is the instant of the
// last event fired: scheduling is an O(1) append, and only the lowest
// non-empty bucket is ever re-filed, so far-future events sit
// untouched until their time comes. Bucket 0 holds the events at base
// in schedule order. Every queued slot records its position in its
// bucket, so Cancel removes the entry at once and recycles the slot:
// the queue holds exactly the live events and nothing is drained
// later.
// Scheduling an event in steady state reuses a slot and bucket cells
// that earlier events vacated, so the hot Schedule/Step/Cancel cycle
// performs no allocation (see allocs_test.go). Callers that would
// otherwise allocate a capturing closure per event can use
// ScheduleArg/ScheduleArgAt, which carry a single argument to a shared
// callback.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/units"
)

// Event is a handle to a scheduled callback, valid for cancellation
// until the event fires. The zero value is NoEvent. Handles carry a
// generation number, so cancelling an already-fired event whose slot
// has been reused is a safe no-op.
type Event struct {
	idx int32
	gen uint32
}

// NoEvent is the zero handle: it names no event and Cancel ignores it.
var NoEvent = Event{}

// Valid reports whether the handle names an event that was scheduled
// (it may have fired or been cancelled since).
func (ev Event) Valid() bool { return ev.gen != 0 }

// slot is the slab entry behind one scheduled event. Exactly one of
// fn/afn is set while the slot is queued; both are nil once the slot is
// free. pos is the slot's index in its bucket while it is queued.
type slot struct {
	at  units.Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
	gen uint32
	pos int32
}

// queued reports whether the slot holds an event (free slots have no
// callback). A handle's generation alone cannot tell: a forged handle
// may carry a free slot's next generation.
func (s *slot) queued() bool { return s.fn != nil || s.afn != nil }

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine. An
// Engine is not safe for concurrent use: a simulation is a single
// logical timeline and runs on one goroutine by design.
type Engine struct {
	now     units.Time
	seq     uint64
	slots   []slot
	free    []int32 // free slot indexes (LIFO)
	stopped bool
	fired   uint64

	// The radix queue; the first Schedule carves its buckets' cells.
	// Every queued slot with time at sits in
	// buckets[bits.Len64(at^base)], and base <= now <= at. Bucket 0 holds the events at base in seq
	// order from head0 on, and when it is non-empty its head is live; a
	// cancelled entry there becomes a -1 tombstone so the order needs
	// no shifting. Higher buckets are unordered. mask has bit i set
	// while bucket i holds an event, and live counts the queued events.
	base    units.Time
	head0   int
	mask    uint64
	live    int
	buckets [64][]int32
}

// bucketCells is each bucket's initial capacity.
const bucketCells = 32

// carve gives every bucket its first cells from one array, so an
// engine pays one allocation for its queue rather than one per bucket
// it touches.
func (e *Engine) carve() {
	cells := new([64 * bucketCells]int32)
	for i := range e.buckets {
		e.buckets[i] = cells[i*bucketCells : i*bucketCells : (i+1)*bucketCells]
	}
}

// NewEngine returns an engine with the clock at zero and no events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// LiveCount returns the number of queued, uncancelled events. Cancel
// removes its event from the queue at once, so this is the queue
// length and LiveCount() == 0 is an exact quiescence test.
func (e *Engine) LiveCount() int { return e.live }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run after delay. A zero delay schedules fn for
// the current instant, after all events already queued for that
// instant. Negative delays panic: the simulated past is immutable.
func (e *Engine) Schedule(delay units.Time, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(e.now+delay, fn, nil, nil)
}

// ScheduleAt queues fn to run at absolute time t, which must not be in
// the past.
func (e *Engine) ScheduleAt(t units.Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(t, fn, nil, nil)
}

// ScheduleArg queues fn(arg) to run after delay. It exists for hot
// paths: a long-lived fn plus a per-event arg avoids allocating a
// capturing closure for every event.
func (e *Engine) ScheduleArg(delay units.Time, fn func(any), arg any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(e.now+delay, nil, fn, arg)
}

// ScheduleArgAt queues fn(arg) to run at absolute time t.
func (e *Engine) ScheduleArgAt(t units.Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.schedule(t, nil, fn, arg)
}

func (e *Engine) schedule(t units.Time, fn func(), afn func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at, s.seq = t, e.seq
	s.fn, s.afn, s.arg = fn, afn, arg
	e.seq++
	b := bucketOf(t, e.base)
	e.room(b)
	e.push(b, idx)
	e.live++
	return Event{idx: idx, gen: s.gen}
}

// Cancel prevents ev from firing and removes it from the queue.
// Cancelling NoEvent, an already-fired or an already-cancelled event is
// a no-op.
func (e *Engine) Cancel(ev Event) {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || !s.queued() {
		return // fired or cancelled; the slot may already serve another
	}
	b := bucketOf(s.at, e.base)
	q := e.buckets[b]
	if b == 0 {
		q[s.pos] = -1 // keep bucket 0's order: leave a tombstone
		if int(s.pos) == e.head0 {
			e.pop0()
		}
	} else {
		last := q[len(q)-1]
		q[s.pos] = last
		e.slots[last].pos = s.pos
		e.buckets[b] = e.buckets[b][:len(q)-1]
		if len(q) == 1 {
			e.mask &^= 1 << b
		}
	}
	e.live--
	e.recycle(ev.idx)
}

// Live reports whether ev is still queued and uncancelled.
func (e *Engine) Live(ev Event) bool {
	if !ev.Valid() || int(ev.idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[ev.idx]
	return s.gen == ev.gen && s.queued()
}

// EventTime returns the instant ev is scheduled for, with ok=false if
// the event has already fired, was cancelled, or is NoEvent.
func (e *Engine) EventTime(ev Event) (t units.Time, ok bool) {
	if !e.Live(ev) {
		return 0, false
	}
	return e.slots[ev.idx].at, true
}

// recycle returns a slot that has left the queue to the free-list and
// bumps its generation so outstanding handles to the old event go
// stale.
func (e *Engine) recycle(idx int32) {
	s := &e.slots[idx]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.gen++
	if s.gen == 0 {
		s.gen = 1 // keep the zero generation reserved for NoEvent
	}
	e.free = append(e.free, idx)
}

// Step fires the next pending event, if any, and reports whether an
// event was fired.
func (e *Engine) Step() bool { return e.stepBy(math.MaxInt64) }

// stepBy fires the earliest event if it is due by deadline and reports
// whether it fired one.
func (e *Engine) stepBy(deadline units.Time) bool {
	if e.mask == 0 {
		return false
	}
	// The queue settles only on an event that fires at once, so base
	// never passes the clock and no schedule lands below it.
	var idx int32
	if b := bits.TrailingZeros64(e.mask); b == 0 {
		idx = e.buckets[0][e.head0]
		if e.slots[idx].at > deadline {
			return false
		}
		e.pop0()
	} else if q := e.buckets[b]; len(q) == 1 {
		// A lone event in the lowest bucket is the earliest, so it
		// leaves without the bucket being re-filed.
		idx = q[0]
		at := e.slots[idx].at
		if at > deadline {
			return false
		}
		e.buckets[b] = q[:0]
		e.mask &^= 1 << b
		e.base = at
	} else if idx = e.settle(deadline); idx < 0 {
		return false
	}
	e.live--
	s := &e.slots[idx]
	at := s.at
	fn, afn, arg := s.fn, s.afn, s.arg
	e.recycle(idx)
	if at < e.now {
		panic("sim: time went backwards")
	}
	e.now = at
	e.fired++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued.
func (e *Engine) RunUntil(deadline units.Time) {
	e.stopped = false
	for !e.stopped && e.stepBy(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor runs the simulation for d simulated time from now.
func (e *Engine) RunFor(d units.Time) {
	e.RunUntil(e.now + d)
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextEventAt returns the time of the next event, or ok=false if the
// queue is empty. It only reads the queue.
func (e *Engine) NextEventAt() (t units.Time, ok bool) {
	if e.live == 0 {
		return 0, false
	}
	if q := e.buckets[0]; e.head0 < len(q) {
		return e.slots[q[e.head0]].at, true
	}
	_, m := e.lowest()
	return m, true
}

// ---------------------------------------------------------------
// Radix queue over (at, seq) (Ahuja, Mehlhorn, Orlin & Tarjan 1990).
// An event's bucket is the highest bit in which its time differs from
// base, so every event in bucket i agrees with base above bit i-1 and
// exceeds every event in a lower bucket. Once bucket 0 is empty, only
// the lowest non-empty bucket is re-filed: its earliest time becomes
// the new base, and each of its events moves to a strictly lower
// bucket, which leaves every higher bucket's events where they are.
// Sequence numbers are unique, so (at, seq) is a strict total order and
// the firing order does not depend on where an event happens to sit.

// bucketOf returns the bucket of an event at t when the queue's base
// is base.
func bucketOf(t, base units.Time) int {
	return bits.Len64(uint64(t^base)) & 63 // times are never negative: Len64 < 64
}

// room makes space for one more event in bucket b.
func (e *Engine) room(b int) {
	if q := e.buckets[b]; len(q) == cap(q) {
		e.grow(b)
	}
}

// grow gives the full bucket b a larger array: an empty bucket's, if
// one is larger, or a new one four times the size. Events drift from
// bucket to bucket as the base moves, so trading arrays keeps the
// queue's capacity where its events are instead of allocating it anew
// in every bucket they pass through. It stays out of line: it runs
// only when a bucket is full.
//
//go:noinline
func (e *Engine) grow(b int) {
	q := e.buckets[b]
	if cap(q) == 0 { // the engine's first Schedule
		e.carve()
		return
	}
	for k, spare := range &e.buckets {
		if len(spare) == 0 && cap(spare) > cap(q) {
			e.buckets[b], e.buckets[k] = append(spare, q...), q[:0]
			return
		}
	}
	e.buckets[b] = append(make([]int32, 0, 4*cap(q)), q...)
}

// push appends slot idx to bucket b, which has room for it. push and
// room stay apart so that both inline into the hot paths, which call
// grow only for a full bucket.
func (e *Engine) push(b int, idx int32) {
	e.slots[idx].pos = int32(len(e.buckets[b]))
	e.buckets[b] = append(e.buckets[b], idx)
	e.mask |= 1 << b
}

// pop0 advances bucket 0's head past the entry just fired or
// cancelled and any tombstones behind it, emptying the bucket when
// nothing live is left, so a non-empty bucket 0 always starts at its
// earliest event.
func (e *Engine) pop0() {
	q := e.buckets[0]
	e.head0++
	for e.head0 < len(q) && q[e.head0] < 0 {
		e.head0++
	}
	if e.head0 == len(q) {
		e.buckets[0], e.head0 = e.buckets[0][:0], 0
		e.mask &^= 1
	}
}

// settle re-files the lowest bucket once bucket 0 is empty and removes
// and returns the earliest event, if it is due by deadline; otherwise
// it returns -1 and leaves the queue as it is. The lowest bucket must
// hold more than one event.
func (e *Engine) settle(deadline units.Time) int32 {
	b, m := e.lowest()
	if m > deadline {
		return -1
	}
	e.refile(b, m)
	idx := e.buckets[0][0]
	e.pop0()
	return idx
}

// lowest returns the lowest non-empty bucket and its earliest time,
// which is the queue's earliest time. Bucket 0 must be empty.
func (e *Engine) lowest() (b int, m units.Time) {
	b = bits.TrailingZeros64(e.mask)
	q := e.buckets[b]
	m = e.slots[q[0]].at
	for _, idx := range q[1:] {
		m = min(m, e.slots[idx].at)
	}
	return b, m
}

// refile makes m, the earliest time in bucket b, the new base and
// re-files bucket b's events into lower buckets, which brings the
// earliest event to bucket 0's head. Bucket 0 must be empty and b the
// lowest non-empty bucket.
func (e *Engine) refile(b int, m units.Time) {
	e.base = m
	for _, idx := range e.buckets[b] {
		j := bucketOf(e.slots[idx].at, m)
		e.room(j)
		e.push(j, idx)
	}
	// Empty bucket b only now: until then grow must not lend its array.
	e.buckets[b] = e.buckets[b][:0]
	e.mask &^= 1 << b
	// The events that landed in bucket 0 arrive in bucket order; later
	// schedules at base carry higher seqs and append behind them.
	if z := e.buckets[0]; len(z) > 1 {
		slices.SortFunc(z, func(x, y int32) int { return cmp.Compare(e.slots[x].seq, e.slots[y].seq) })
		for i, idx := range z {
			e.slots[idx].pos = int32(i)
		}
	}
}
