package sim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/units"
)

// checkQueue verifies the radix queue's structure: the base is no
// later than the clock and no event earlier than it; every queued slot
// sits in bucket bits.Len64(at^base), records its position there and
// carries a callback; bucket 0 holds its events in seq order from a
// live head on, with tombstones only behind the head; higher buckets
// hold no tombstones; mask marks exactly the buckets that hold an
// event; the live count is exact; and no slot is queued twice or also
// sitting on the free-list.
func (e *Engine) checkQueue() error {
	if e.base > e.now {
		return fmt.Errorf("queue base %v is past the clock %v", e.base, e.now)
	}
	seen := make(map[int32]bool, e.live)
	if q := e.buckets[0]; e.head0 > len(q) || (e.head0 == len(q) && e.head0 != 0) || (e.head0 < len(q) && q[e.head0] < 0) {
		return fmt.Errorf("bucket 0 of %d entries has head %d, not a live entry", len(q), e.head0)
	}
	lastSeq := int64(-1)
	for b, q := range e.buckets {
		n := len(q)
		if b == 0 {
			n -= e.head0
		}
		if (e.mask>>b&1 == 1) != (n > 0) {
			return fmt.Errorf("bucket %d holds %d entries but mask bit is %d", b, n, e.mask>>b&1)
		}
		from := 0
		if b == 0 {
			from = e.head0
		}
		for i := from; i < len(q); i++ {
			idx := q[i]
			if idx < 0 && b == 0 {
				continue // tombstone of a cancelled event
			}
			if idx < 0 || int(idx) >= len(e.slots) {
				return fmt.Errorf("bucket %d[%d] = %d: no such slot", b, i, idx)
			}
			if seen[idx] {
				return fmt.Errorf("slot %d queued twice", idx)
			}
			seen[idx] = true
			s := &e.slots[idx]
			if int(s.pos) != i {
				return fmt.Errorf("slot %d at bucket %d[%d] records pos %d", idx, b, i, s.pos)
			}
			if s.fn == nil && s.afn == nil {
				return fmt.Errorf("slot %d at bucket %d[%d] has no callback", idx, b, i)
			}
			if s.at < e.now || bucketOf(s.at, e.base) != b {
				return fmt.Errorf("slot %d at %v sits in bucket %d, base %v, clock %v", idx, s.at, b, e.base, e.now)
			}
			if b == 0 {
				if int64(s.seq) <= lastSeq {
					return fmt.Errorf("bucket 0[%d] has seq %d after seq %d", i, s.seq, lastSeq)
				}
				lastSeq = int64(s.seq)
			}
		}
	}
	if len(seen) != e.live {
		return fmt.Errorf("%d events queued, live count %d", len(seen), e.live)
	}
	for _, idx := range e.free {
		if seen[idx] {
			return fmt.Errorf("slot %d is both queued and free", idx)
		}
	}
	if e.live+len(e.free) != len(e.slots) {
		return fmt.Errorf("%d queued + %d free != %d slots", e.live, len(e.free), len(e.slots))
	}
	return nil
}

// queuedSlots returns the slot index of every queued event.
func (e *Engine) queuedSlots() []int32 {
	var out []int32
	for b, q := range e.buckets {
		if b == 0 {
			q = q[e.head0:]
		}
		for _, idx := range q {
			if idx >= 0 {
				out = append(out, idx)
			}
		}
	}
	return out
}

// refEvent is one entry of FuzzEngineOrder's reference queue.
type refEvent struct {
	at  units.Time
	seq int // schedule order, the tie-break for equal times
}

// FuzzEngineOrder runs random schedule/cancel/step/stale-cancel/
// run-until tapes against a reference model — a sorted list of (time,
// sequence) pairs — and checks that the engine fires exactly the
// reference's order, that LiveCount equals the reference's size after
// every operation, and that the queue's structure (checkQueue) holds
// throughout. Each operation takes two tape bytes: an opcode and an
// operand. Near schedules land within 31 ns, far ones anywhere from
// 1 ns to 16 s, so every bucket of the radix queue is reachable; a
// run-until that stops short of the next event leaves the clock
// between two queued instants, so a later schedule can land in the
// gap.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 9, 4, 9, 0, 0, 2, 1, 3, 0, 1, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 200, 0, 5, 0, 5, 0, 17, 2, 2, 2, 2, 1, 0, 3, 1, 1, 0, 0, 0, 1, 0})
	// Far schedules across the buckets, a cancel, then the drain.
	f.Add([]byte{5, 40, 5, 10, 5, 200, 5, 31, 5, 95, 2, 1, 1, 0, 1, 0, 5, 3, 1, 0})
	// Run until short of a far head, then schedule into the gap and at
	// the head's instant.
	f.Add([]byte{5, 10, 0, 3, 6, 100, 0, 2, 0, 0, 6, 10, 4, 1, 1, 0, 1, 0})
	// Same-instant burst: ties at the clock and at one far instant
	// whose cancels scramble the bucket before it is re-filed.
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 0, 2, 1, 5, 12, 5, 12, 5, 12, 5, 12, 2, 4, 5, 12, 1, 0, 0, 0, 1, 0, 1, 0, 6, 255, 1, 0})
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
			op, arg := tape[i]%7, int(tape[i+1])
			switch op {
			case 0, 4, 5: // schedule; op 4 uses the plain-closure form, op 5 is far
				seq := len(handles)
				at := e.Now() + units.Time(arg%32)*units.Nanosecond
				if op == 5 {
					at = e.Now() + units.Time(arg>>5+1)*units.Nanosecond<<(arg&31)
				}
				var ev Event
				if op == 4 {
					ev = e.ScheduleAt(at, func() { record(seq) })
				} else {
					ev = e.ScheduleArgAt(at, record, seq)
				}
				handles = append(handles, ev)
				// seq exceeds every queued seq: insert after all
				// entries at or before at.
				k := sort.Search(len(ref), func(k int) bool { return ref[k].at > at })
				ref = append(ref, refEvent{})
				copy(ref[k+1:], ref[k:])
				ref[k] = refEvent{at: at, seq: seq}
			case 6: // run until a deadline up to 255 ns ahead
				deadline := e.Now() + units.Time(arg)*units.Nanosecond
				n := 0
				for _, r := range ref {
					if r.at > deadline {
						break
					}
					n++
				}
				start := len(fired)
				e.RunUntil(deadline)
				if len(fired)-start != n {
					t.Fatalf("op %d: RunUntil(%v) fired %d events, reference has %d due", i/2, deadline, len(fired)-start, n)
				}
				for k := 0; k < n; k++ {
					if fired[start+k] != ref[k].seq {
						t.Fatalf("op %d: RunUntil fired %v, reference %v", i/2, fired[start:], ref[:n])
					}
				}
				ref = ref[n:]
				if e.Now() != deadline {
					t.Fatalf("op %d: clock %v after RunUntil(%v)", i/2, e.Now(), deadline)
				}
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
			if err := e.checkQueue(); err != nil {
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
