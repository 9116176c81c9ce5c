package lanai

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// BenchmarkCPUPost posts handlers to the LANai CPU and runs them to
// completion. "idle" posts one handler per operation to an idle core;
// "queued" posts two, the second queued behind the first while it
// runs, so it takes the task heap.
func BenchmarkCPUPost(b *testing.B) {
	par := DefaultParams()
	fn := func(any) {}
	for _, bc := range []struct {
		name  string
		posts int
	}{{"idle", 1}, {"queued", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c := NewCPU(eng, par.Freq, par.DispatchCycles)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < bc.posts; k++ {
					c.PostArg(PrioRecv, 24, fn, nil)
				}
				eng.Run()
			}
		})
	}
}

// BenchmarkHostDMAQueued runs two host DMA transfers per operation,
// the second queued behind the first: a grant at once, a grant from
// the completion path, two completions.
func BenchmarkHostDMAQueued(b *testing.B) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	done := func(any, units.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nic.HostDMA(64, done, nil)
		nic.HostDMA(4096, done, nil)
		eng.Run()
	}
}

// BenchmarkHostDMAChunkedQueued is BenchmarkHostDMAQueued for chained
// (chunked) transfers, the SDMA pipeline of a chunking firmware.
func BenchmarkHostDMAChunkedQueued(b *testing.B) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	ready := func(any, units.Time, units.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nic.HostDMAChunked(4096, 1024, ready, nil)
		nic.HostDMAChunked(4096, 1024, ready, nil)
		eng.Run()
	}
}
