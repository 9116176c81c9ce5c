// Package sim implements the deterministic discrete-event engine that
// drives every model in the simulator: the wormhole fabric, the LANai
// NIC, the MCP firmware, and the GM host layer.
//
// The engine maintains a picosecond-resolution clock and a priority
// queue of events. Events scheduled for the same instant fire in the
// order they were scheduled, which makes every simulation run
// reproducible byte-for-byte given the same inputs.
//
// The queue is an index-based binary heap over a slab of event slots
// with a free-list. Every queued slot records its own heap position,
// so Cancel removes the entry at once (O(log n)) and recycles the slot:
// the heap holds exactly the live events and nothing is drained later.
// Scheduling an event in steady state reuses a slot and a heap cell
// that earlier events vacated, so the hot Schedule/Step/Cancel cycle
// performs no allocation (see allocs_test.go). Callers that would
// otherwise allocate a capturing closure per event can use
// ScheduleArg/ScheduleArgAt, which carry a single argument to a shared
// callback.
package sim

import (
	"fmt"

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
// free. pos is the slot's index in the heap while it is queued.
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
	heap    []int32 // queued slot indexes ordered by (at, seq)
	stopped bool
	fired   uint64
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
func (e *Engine) LiveCount() int { return len(e.heap) }

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
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap)-1, idx)
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
	e.remove(int(s.pos))
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

// recycle returns a slot that has left the heap to the free-list and
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
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	idx := e.heap[0]
	e.remove(0)
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
	for !e.stopped {
		t, ok := e.NextEventAt()
		if !ok || t > deadline {
			break
		}
		e.Step()
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
// queue is empty.
func (e *Engine) NextEventAt() (t units.Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// ---------------------------------------------------------------
// Index heap over (at, seq). Plain slice operations: no interface
// boxing, no per-operation allocation once capacity is warm. The sift
// loops move a hole rather than swapping, and keep every moved slot's
// pos current. Sequence numbers are unique, so (at, seq) is a strict
// total order and the firing order does not depend on the heap's
// internal layout.

// before reports whether slot a fires before slot b.
func before(a, b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp places slot idx, which belongs at heap position i or above.
func (e *Engine) siftUp(i int, idx int32) {
	h := e.heap
	s := &e.slots[idx]
	for i > 0 {
		p := (i - 1) / 2
		ps := &e.slots[h[p]]
		if !before(s, ps) {
			break
		}
		h[i] = h[p]
		ps.pos = int32(i)
		i = p
	}
	h[i] = idx
	s.pos = int32(i)
}

// siftDown places slot idx, which belongs at heap position i or below.
func (e *Engine) siftDown(i int, idx int32) {
	h := e.heap
	n := len(h)
	s := &e.slots[idx]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		cs := &e.slots[h[c]]
		if r := c + 1; r < n {
			if rs := &e.slots[h[r]]; before(rs, cs) {
				c, cs = r, rs
			}
		}
		if !before(cs, s) {
			break
		}
		h[i] = h[c]
		cs.pos = int32(i)
		i = c
	}
	h[i] = idx
	s.pos = int32(i)
}

// remove deletes the entry at heap position i, refilling the hole with
// the last entry.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && before(&e.slots[last], &e.slots[e.heap[(i-1)/2]]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}
