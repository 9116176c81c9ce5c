package sim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/units"
)

// checkHeap verifies the queue's structure: the heap property over
// (at, seq), every queued slot's pos pointing back at its heap cell,
// every queued slot carrying a callback, and no slot queued twice or
// also sitting on the free-list.
func (e *Engine) checkHeap() error {
	seen := make(map[int32]bool, len(e.heap))
	for i, idx := range e.heap {
		if idx < 0 || int(idx) >= len(e.slots) {
			return fmt.Errorf("heap[%d] = %d: no such slot", i, idx)
		}
		if seen[idx] {
			return fmt.Errorf("slot %d queued twice", idx)
		}
		seen[idx] = true
		s := &e.slots[idx]
		if int(s.pos) != i {
			return fmt.Errorf("slot %d at heap[%d] records pos %d", idx, i, s.pos)
		}
		if s.fn == nil && s.afn == nil {
			return fmt.Errorf("slot %d at heap[%d] has no callback", idx, i)
		}
		if i > 0 {
			if p := &e.slots[e.heap[(i-1)/2]]; before(s, p) {
				return fmt.Errorf("heap[%d] (%v,%d) fires before its parent (%v,%d)", i, s.at, s.seq, p.at, p.seq)
			}
		}
	}
	for _, idx := range e.free {
		if seen[idx] {
			return fmt.Errorf("slot %d is both queued and free", idx)
		}
	}
	if len(e.heap)+len(e.free) != len(e.slots) {
		return fmt.Errorf("%d queued + %d free != %d slots", len(e.heap), len(e.free), len(e.slots))
	}
	return nil
}

// refEvent is one entry of FuzzEngineOrder's reference queue.
type refEvent struct {
	at  units.Time
	seq int // schedule order, the tie-break for equal times
}

// FuzzEngineOrder runs random schedule/cancel/step/stale-cancel tapes
// against a reference model — a sorted list of (time, sequence) pairs
// — and checks that the engine fires exactly the reference's order,
// that LiveCount equals the reference's size after every operation,
// and that the heap's structure (checkHeap) holds throughout. Each
// operation takes two tape bytes: an opcode and an operand.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 4, 9, 0, 0, 2, 1, 3, 0, 1, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 200, 0, 5, 0, 5, 0, 17, 2, 2, 2, 2, 1, 0, 3, 1, 1, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		e := NewEngine()
		var ref []refEvent  // live events, kept sorted by (at, seq)
		var handles []Event // every handle ever issued, by seq
		var fired []int     // seqs in firing order
		record := func(a any) { fired = append(fired, a.(int)) }
		refIndex := func(seq int) int {
			for i, r := range ref {
				if r.seq == seq {
					return i
				}
			}
			return -1
		}
		for i := 0; i+1 < len(tape) && i < 8192; i += 2 {
			op, arg := tape[i]%5, int(tape[i+1])
			switch op {
			case 0, 4: // schedule; op 4 uses the plain-closure form
				seq := len(handles)
				at := e.Now() + units.Time(arg%32)*units.Nanosecond
				var ev Event
				if op == 0 {
					ev = e.ScheduleArgAt(at, record, seq)
				} else {
					ev = e.ScheduleAt(at, func() { record(seq) })
				}
				handles = append(handles, ev)
				// seq exceeds every queued seq: insert after all
				// entries at or before at.
				k := sort.Search(len(ref), func(k int) bool { return ref[k].at > at })
				ref = append(ref, refEvent{})
				copy(ref[k+1:], ref[k:])
				ref[k] = refEvent{at: at, seq: seq}
			case 1: // step
				want := len(fired)
				if e.Step() != (len(ref) > 0) {
					t.Fatalf("op %d: Step disagrees with a reference of %d events", i/2, len(ref))
				}
				if len(ref) == 0 {
					break
				}
				if len(fired) != want+1 || fired[want] != ref[0].seq {
					t.Fatalf("op %d: fired %v, reference head is seq %d", i/2, fired[want:], ref[0].seq)
				}
				if e.Now() != ref[0].at {
					t.Fatalf("op %d: clock %v, reference head at %v", i/2, e.Now(), ref[0].at)
				}
				ref = ref[1:]
			case 2: // cancel a handle picked by the operand, live or stale
				if len(handles) == 0 {
					break
				}
				seq := arg % len(handles)
				e.Cancel(handles[seq])
				if k := refIndex(seq); k >= 0 {
					ref = append(ref[:k], ref[k+1:]...)
				}
			case 3: // cancel a forged handle: right slot, wrong generation
				if len(handles) == 0 {
					break
				}
				h := handles[arg%len(handles)]
				h.gen += 1 + uint32(arg)
				if e.Live(h) {
					// The forged generation is the slot's current one:
					// the handle names a real event after all.
					for seq, real := range handles {
						if k := refIndex(seq); real == h && k >= 0 {
							ref = append(ref[:k], ref[k+1:]...)
						}
					}
				}
				e.Cancel(h)
			}
			if e.LiveCount() != len(ref) {
				t.Fatalf("op %d: LiveCount=%d, reference holds %d", i/2, e.LiveCount(), len(ref))
			}
			if err := e.checkHeap(); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if at, ok := e.NextEventAt(); ok != (len(ref) > 0) || (ok && at != ref[0].at) {
				t.Fatalf("op %d: NextEventAt=(%v,%v), reference head %v", i/2, at, ok, ref)
			}
		}
		// Drain: the remaining order must match the reference too.
		for _, r := range ref {
			n := len(fired)
			if !e.Step() || len(fired) != n+1 || fired[n] != r.seq {
				t.Fatalf("drain: fired %v, want seq %d next", fired[n:], r.seq)
			}
		}
		if e.Step() || e.LiveCount() != 0 {
			t.Fatalf("engine not empty after the reference drained (LiveCount=%d)", e.LiveCount())
		}
	})
}
