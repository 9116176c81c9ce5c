package lanai

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// refCPU is the reference dispatcher FuzzCPUDispatch checks CPU
// against: every post joins the pending list, and the core, whenever
// idle, takes the highest-priority entry, the earliest-posted first
// within a priority, found by a linear scan. A handler runs at the end
// of its cycles plus the dispatch overhead, while the core still
// counts as busy.
type refCPU struct {
	eng            *sim.Engine
	freq           units.Frequency
	dispatchCycles int
	busy           bool
	pending        []refTask
	seq            int
	busyTime       units.Time
	executed       uint64
}

type refTask struct {
	prio, seq, cycles int
	fn                func()
}

func (r *refCPU) post(prio, cycles int, fn func()) {
	r.pending = append(r.pending, refTask{prio: prio, seq: r.seq, cycles: cycles, fn: fn})
	r.seq++
	r.next()
}

func (r *refCPU) next() {
	if r.busy || len(r.pending) == 0 {
		return
	}
	best := 0
	for i, t := range r.pending {
		b := r.pending[best]
		if t.prio > b.prio || t.prio == b.prio && t.seq < b.seq {
			best = i
		}
	}
	t := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	r.busy = true
	d := r.freq.Cycles(t.cycles + r.dispatchCycles)
	r.busyTime += d
	r.eng.Schedule(d, func() {
		t.fn()
		r.busy = false
		r.executed++
		r.next()
	})
}

// tapeOp is one post of a FuzzCPUDispatch tape.
type tapeOp struct {
	prio, cycles int
	parent       int        // op whose handler posts this one, -1 for outside
	at           units.Time // instant of an outside post
}

// ran is one handler run: which op, and when it completed.
type ran struct {
	op int
	at units.Time
}

// runTape posts the tape's outside ops at their instants and each
// inside op from its parent's handler, in tape order, and returns the
// handlers' runs in completion order.
func runTape(eng *sim.Engine, ops []tapeOp, post func(prio, cycles int, fn func())) []ran {
	var runs []ran
	children := make([][]int, len(ops))
	for i, op := range ops {
		if op.parent >= 0 {
			children[op.parent] = append(children[op.parent], i)
		}
	}
	var postOp func(i int)
	postOp = func(i int) {
		post(ops[i].prio, ops[i].cycles, func() {
			runs = append(runs, ran{op: i, at: eng.Now()})
			for _, c := range children[i] {
				postOp(c)
			}
		})
	}
	for i, op := range ops {
		if op.parent < 0 {
			eng.ScheduleAt(op.at, func() { postOp(i) })
		}
	}
	eng.Run()
	return runs
}

// FuzzCPUDispatch runs random tapes of handler posts through CPU and
// through refCPU and checks that every handler runs at the same
// instant and in the same order on both, with the same busy time and
// task count. The first tape byte picks the dispatch overhead (0-3
// cycles) and the clock: 100 MHz, whose 10 ns period makes posts and
// completions collide, or 66 MHz. Each post then takes three bytes: a
// priority and a parent (an earlier op whose handler posts it, or none
// for a post from outside at its own instant), a cycle cost from 0 to
// 255, and the outside post's instant in 10 ns steps.
func FuzzCPUDispatch(f *testing.F) {
	// Outside posts only: ties at t=0, a queued burst, a late idle post.
	f.Add([]byte{0, 0, 10, 0, 8, 10, 0, 1, 0, 0, 2, 30, 0, 3, 200, 90})
	// Handlers posting mixed priorities from inside, with zero costs.
	f.Add([]byte{1, 0, 4, 0, 4, 0, 0, 9, 8, 0, 2, 0, 0, 13, 64, 0, 5, 63, 0})
	// 66 MHz, posts landing while the core is busy and just after it
	// goes idle.
	f.Add([]byte{6, 1, 30, 0, 0, 16, 1, 3, 24, 2, 2, 8, 3, 7, 100, 7, 4, 1, 9})
	prios := [...]int{PrioSend, PrioDMA, PrioRecv, PrioITB}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		dispatchCycles := int(tape[0] % 4)
		freq := 100 * units.MHz
		if tape[0]&4 != 0 {
			freq = 66 * units.MHz
		}
		var ops []tapeOp
		for i := 1; i+2 < len(tape) && len(ops) < 256; i += 3 {
			op := tapeOp{
				prio:   prios[tape[i]%4],
				parent: int(tape[i]>>2)%(len(ops)+1) - 1,
				cycles: int(tape[i+1]),
				at:     units.Time(tape[i+2]) * 10 * units.Nanosecond,
			}
			ops = append(ops, op)
		}

		eng := sim.NewEngine()
		cpu := NewCPU(eng, freq, dispatchCycles)
		got := runTape(eng, ops, func(prio, cycles int, fn func()) {
			cpu.PostArg(prio, cycles, func(any) { fn() }, nil)
		})
		refEng := sim.NewEngine()
		ref := &refCPU{eng: refEng, freq: freq, dispatchCycles: dispatchCycles}
		want := runTape(refEng, ops, ref.post)

		if !slices.Equal(got, want) {
			t.Fatalf("runs (op, instant)\n got %v\nwant %v", got, want)
		}
		if cpu.BusyTime != ref.busyTime || cpu.Executed != ref.executed {
			t.Errorf("busy %v, executed %d; reference busy %v, executed %d",
				cpu.BusyTime, cpu.Executed, ref.busyTime, ref.executed)
		}
		if cpu.Busy() || cpu.QueueLen() != 0 {
			t.Errorf("drained CPU busy=%v with %d queued", cpu.Busy(), cpu.QueueLen())
		}
	})
}
