package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// TestCancelStormLeavesOnlyLiveEvents pins eager cancellation: after a
// storm of cancellations (double-cancels included) LiveCount is exact
// and the queue holds exactly the uncancelled events — no cancelled
// entry stays behind for a later drain, so a queue-length quiescence
// test cannot wait forever on cancelled residue.
func TestCancelStormLeavesOnlyLiveEvents(t *testing.T) {
	e := NewEngine()
	const n = 1000
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, e.Schedule(units.Time(i+1)*units.Nanosecond, func() {}))
	}
	if e.LiveCount() != n {
		t.Fatalf("after scheduling: LiveCount=%d, want %d", e.LiveCount(), n)
	}
	// Cancel a deterministic 80% storm, including double-cancels.
	rng := rand.New(rand.NewSource(7))
	kept := make(map[int32]bool)
	for i, ev := range evs {
		if rng.Intn(5) != 0 {
			e.Cancel(ev)
			if i%3 == 0 {
				e.Cancel(ev) // double cancel must not double-remove
			}
			continue
		}
		kept[ev.idx] = true
	}
	if e.LiveCount() != len(kept) {
		t.Fatalf("after storm: LiveCount=%d, want %d", e.LiveCount(), len(kept))
	}
	if err := e.checkQueue(); err != nil {
		t.Fatalf("after storm: %v", err)
	}
	// The queue holds exactly the kept events: same count, each queued
	// slot is one of them, and each kept handle is still live.
	for _, idx := range e.queuedSlots() {
		if !kept[idx] {
			t.Fatalf("slot %d is queued but its event was cancelled", idx)
		}
	}
	for _, ev := range evs {
		if e.Live(ev) != kept[ev.idx] {
			t.Fatalf("slot %d: Live=%v, want %v", ev.idx, e.Live(ev), kept[ev.idx])
		}
	}
	e.Run()
	if e.LiveCount() != 0 {
		t.Fatalf("after drain: LiveCount=%d, want 0", e.LiveCount())
	}
	if int(e.Fired()) != len(kept) {
		t.Fatalf("Fired=%d, want %d live events", e.Fired(), len(kept))
	}
}

// TestLiveCountNestedAndRequeue exercises LiveCount under events that
// schedule and cancel other events while firing.
func TestLiveCountNestedAndRequeue(t *testing.T) {
	e := NewEngine()
	var victim Event
	victim = e.Schedule(100*units.Nanosecond, func() { t.Error("victim fired despite cancel") })
	e.Schedule(10*units.Nanosecond, func() {
		e.Cancel(victim)
		e.Schedule(5*units.Nanosecond, func() {})
		if e.LiveCount() != 1 {
			t.Errorf("inside event: LiveCount=%d, want 1 (victim cancelled, one nested)", e.LiveCount())
		}
	})
	e.Run()
	if e.LiveCount() != 0 {
		t.Fatalf("LiveCount=%d after Run, want 0", e.LiveCount())
	}
}

// TestStaleHandleCancelIsNoOp is the generation-reuse property: once an
// event fires, its slot can be reused by a later schedule. Cancelling
// the stale handle must neither touch the new occupant nor corrupt the
// live counter.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := false
	stale := e.Schedule(units.Nanosecond, func() {})
	e.Run() // slot freed, handle now stale

	fresh := e.Schedule(units.Nanosecond, func() { fired = true })
	if fresh.idx != stale.idx {
		t.Fatalf("free-list did not reuse slot %d (got %d); test harness assumption broken", stale.idx, fresh.idx)
	}
	e.Cancel(stale) // stale generation: must be a no-op
	if e.LiveCount() != 1 {
		t.Fatalf("stale cancel changed LiveCount to %d, want 1", e.LiveCount())
	}
	if !e.Live(fresh) {
		t.Fatal("stale cancel killed the slot's new occupant")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event never fired after stale cancel")
	}
}

// TestGenerationReuseProperty drives a randomized schedule/fire/cancel
// interleaving and checks the engine's bookkeeping invariants hold no
// matter how handles go stale.
func TestGenerationReuseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type tracked struct {
			ev    Event
			fired *bool
			dead  bool // cancelled while live
		}
		var handles []tracked
		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				f := new(bool)
				ev := e.Schedule(units.Time(rng.Intn(50))*units.Nanosecond, func() { *f = true })
				handles = append(handles, tracked{ev: ev, fired: f})
			case 2: // cancel a random handle, possibly stale
				if len(handles) == 0 {
					continue
				}
				h := &handles[rng.Intn(len(handles))]
				if e.Live(h.ev) {
					h.dead = true
				}
				e.Cancel(h.ev) // stale/dead handles: must be a no-op
			case 3: // fire a few events, making handles stale
				for k := 0; k < rng.Intn(4); k++ {
					if !e.Step() {
						break
					}
				}
			}
			// Invariant: LiveCount matches the tracked live set.
			liveWant := 0
			for i := range handles {
				if !handles[i].dead && !*handles[i].fired {
					liveWant++
				}
			}
			if e.LiveCount() != liveWant {
				t.Logf("seed %d step %d: LiveCount=%d, tracked live=%d", seed, step, e.LiveCount(), liveWant)
				return false
			}
			if err := e.checkQueue(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		e.Run()
		for i := range handles {
			if handles[i].dead && *handles[i].fired {
				t.Logf("seed %d: cancelled event fired", seed)
				return false
			}
			if !handles[i].dead && !*handles[i].fired {
				t.Logf("seed %d: live event never fired", seed)
				return false
			}
		}
		return e.LiveCount() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStaleHandleCancel feeds arbitrary operation tapes into the engine
// and checks that cancelling recycled handles can never fire the wrong
// event or leave the queue holding anything but the live events. Each
// input byte encodes one operation; handles deliberately outlive their
// events.
func FuzzStaleHandleCancel(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 2, 1, 1})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3})
	f.Fuzz(func(t *testing.T, tape []byte) {
		e := NewEngine()
		var handles []Event
		cancelled := make(map[int]bool)
		firedBy := make(map[int]*bool)
		for i, op := range tape {
			if i > 4096 {
				break
			}
			switch op % 4 {
			case 0: // schedule
				id := len(handles)
				fl := new(bool)
				firedBy[id] = fl
				delay := units.Time(op/4) * units.Nanosecond
				handles = append(handles, e.Schedule(delay, func() { *fl = true }))
			case 1: // step
				e.Step()
			case 2: // cancel handle picked by the byte, stale or not
				if len(handles) == 0 {
					continue
				}
				id := int(op/4) % len(handles)
				if e.Live(handles[id]) {
					cancelled[id] = true
				}
				e.Cancel(handles[id])
			case 3: // cancel a forged handle: wrong generation on a valid slot
				if len(handles) == 0 {
					continue
				}
				h := handles[int(op/4)%len(handles)]
				h.gen += 1 + uint32(op/4)
				if e.Live(h) {
					// The forged generation is the slot's current one:
					// the handle names a real event after all.
					for id, real := range handles {
						if real == h {
							cancelled[id] = true
						}
					}
				}
				e.Cancel(h) // otherwise a no-op regardless of forged gen
			}
			live := 0
			for id, fl := range firedBy {
				if !cancelled[id] && !*fl {
					live++
				}
			}
			if e.LiveCount() != live {
				t.Fatalf("LiveCount=%d, want %d scheduled, unfired, uncancelled events", e.LiveCount(), live)
			}
			if err := e.checkQueue(); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		if e.LiveCount() != 0 {
			t.Fatalf("LiveCount=%d after full drain", e.LiveCount())
		}
		for id, fl := range firedBy {
			if cancelled[id] && *fl {
				t.Fatalf("event %d fired after being cancelled while live", id)
			}
		}
	})
}
