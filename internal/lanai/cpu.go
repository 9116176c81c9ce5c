// Package lanai models the programmable Myrinet NIC: the LANai chip's
// 32-bit RISC processor, its event-dispatch behaviour, and the DMA
// engines (host DMA, send packet DMA, receive packet DMA) that the MCP
// firmware orchestrates.
//
// The processor model is what makes "code overhead" measurable: every
// MCP handler is charged an explicit cycle budget on a serial,
// priority-dispatched CPU, so adding the ITB checks to the firmware
// slows the receive path by exactly the kind of margin the paper
// measures (about 125 ns per packet at 66 MHz).
package lanai

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Priorities for CPU tasks, mirroring the MCP event handler's
// "highest priority pending event" dispatch rule. Higher wins.
const (
	PrioITB  = 30 // Early Recv detection and ITB re-injection
	PrioRecv = 20 // receive completion, programming next reception
	PrioDMA  = 15 // host DMA (SDMA/RDMA) completions
	PrioSend = 10 // send setup
)

// task is one pending handler, fn(arg).
type task struct {
	prio   int
	seq    uint64
	cycles int
	fn     func(any)
	arg    any
}

// taskHeap is a binary heap of task values (highest priority first,
// FIFO within a priority). Storing values in a plain slice keeps PostArg
// allocation-free in steady state: no per-task box, no interface
// conversion through container/heap.
type taskHeap []task

func (h taskHeap) before(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h *taskHeap) push(t task) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *taskHeap) pop() task {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = task{} // drop the fn reference for the collector
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && s.before(r, l) {
			best = r
		}
		if !s.before(best, i) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// CPU is the LANai's on-chip processor: it executes one handler at a
// time; pending handlers wait in a priority queue (the event handler's
// dispatch loop). Each dispatched task additionally pays the dispatch
// overhead.
type CPU struct {
	eng            *sim.Engine
	freq           units.Frequency
	dispatchCycles int
	busy           bool
	pending        taskHeap
	seq            uint64

	// BusyTime accumulates total execution time, for utilisation
	// metrics.
	BusyTime units.Time
	// Executed counts completed tasks.
	Executed uint64

	// curFn(curArg) is the handler executing now; doneFn is the
	// long-lived completion callback shared by every dispatch, so
	// dispatching does not allocate a closure per task.
	curFn  func(any)
	curArg any
	doneFn func()
}

// NewCPU returns an idle CPU clocked at freq; every dispatched task
// pays dispatchCycles of event-handler overhead on top of its own
// cycle cost.
func NewCPU(eng *sim.Engine, freq units.Frequency, dispatchCycles int) *CPU {
	if freq <= 0 {
		panic("lanai: non-positive CPU frequency")
	}
	c := &CPU{eng: eng, freq: freq, dispatchCycles: dispatchCycles}
	c.doneFn = c.taskDone
	return c
}

// Freq returns the CPU clock.
func (c *CPU) Freq() units.Frequency { return c.freq }

// PostArg queues fn(arg) to run after cycles of CPU work at the given
// priority. fn executes when the work completes (the handler's effect
// becomes visible at its end). As with sim.Engine.ScheduleArg, a
// long-lived fn plus a per-task pointer arg posts a handler without
// allocating a capturing closure.
func (c *CPU) PostArg(prio, cycles int, fn func(any), arg any) {
	if cycles < 0 {
		panic("lanai: negative cycle cost")
	}
	seq := c.seq
	c.seq++
	if !c.busy && len(c.pending) == 0 {
		// An idle core with nothing queued: pushing the task and
		// popping the heap's top would hand this task straight back.
		c.start(cycles, fn, arg)
		return
	}
	c.pending.push(task{prio: prio, seq: seq, cycles: cycles, fn: fn, arg: arg})
	c.dispatch()
}

// Busy reports whether a handler is executing now.
func (c *CPU) Busy() bool { return c.busy }

// QueueLen returns the number of handlers waiting to run.
func (c *CPU) QueueLen() int { return len(c.pending) }

func (c *CPU) dispatch() {
	if c.busy || len(c.pending) == 0 {
		return
	}
	t := c.pending.pop()
	c.start(t.cycles, t.fn, t.arg)
}

// start runs fn(arg) on the idle core: it completes after cycles plus
// the dispatch overhead.
func (c *CPU) start(cycles int, fn func(any), arg any) {
	c.busy = true
	d := c.freq.Cycles(cycles + c.dispatchCycles)
	c.BusyTime += d
	c.curFn, c.curArg = fn, arg
	c.eng.Schedule(d, c.doneFn)
}

// taskDone is the shared completion handler: it runs the current task
// and dispatches the next. Tasks the handler posts queue behind the
// busy core, so curFn and curArg stay put until it returns.
func (c *CPU) taskDone() {
	c.curFn(c.curArg)
	c.curFn, c.curArg = nil, nil
	c.busy = false
	c.Executed++
	c.dispatch()
}
