package lanai

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// Posting and dispatching a handler is the LANai model's inner loop
// (every MCP event handler goes through it); after warmup it must not
// allocate: tasks are heap values, the handler is a long-lived
// function with a pointer argument (boxing a pointer into an any does
// not allocate), the completion callback is the CPU's long-lived
// doneFn, and the engine reuses event slots. Both dispatch paths are
// measured: a post to an idle core, which starts at once, and posts
// queued behind a running handler, which go through the task heap.
func TestCPUPostDispatchSteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	par := DefaultParams()
	c := NewCPU(eng, par.Freq, par.DispatchCycles)
	sink := 0
	fn := func(a any) { *(a.(*int))++ }
	arg := &sink
	for i := 0; i < 32; i++ {
		c.PostArg(PrioRecv, 10, fn, arg)
	}
	eng.Run()
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"idle", func() {
			c.PostArg(PrioRecv, 10, fn, arg)
			eng.Run()
		}},
		{"queued", func() {
			c.PostArg(PrioRecv, 10, fn, arg)
			c.PostArg(PrioSend, 80, fn, arg)
			c.PostArg(PrioITB, 5, fn, arg) // preempts in the queue, not on the core
			if c.QueueLen() != 2 {
				t.Fatalf("%d queued behind the running handler, want 2", c.QueueLen())
			}
			eng.Run()
		}},
	} {
		if allocs := testing.AllocsPerRun(200, tc.run); allocs != 0 {
			t.Errorf("%s post+dispatch allocates %.1f/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// A queued host DMA — one transfer granted at once, one granted from
// the first's completion, plain and chained — must not allocate: the
// requests are values in the engine's FIFO and the completion callback
// is the NIC's long-lived one.
func TestHostDMAQueuedSteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	n := 0
	arg := &n
	done := func(a any, _ units.Time) { *(a.(*int))++ }
	ready := func(a any, _, _ units.Time) { *(a.(*int))++ }
	run := func() {
		nic.HostDMA(64, done, arg)
		nic.HostDMAChunked(4096, 1024, ready, arg)
		nic.HostDMA(256, done, arg)
		nic.HostDMAChunked(512, 4096, ready, arg) // degenerate: one transfer
		eng.Run()
	}
	run()
	allocs := testing.AllocsPerRun(200, run)
	if allocs != 0 {
		t.Errorf("queued host DMA allocates %.1f/op in steady state, want 0", allocs)
	}
	// One warm-up run here, one inside AllocsPerRun, then 200 measured.
	if n != 4*202 {
		t.Errorf("%d completions, want %d", n, 4*202)
	}
}
