package lanai

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestHostDMAChunkedTiming(t *testing.T) {
	eng := sim.NewEngine()
	par := DefaultParams()
	nic := NewNIC(eng, par)
	var first, done units.Time
	nic.HostDMAChunked(4096, 1024, func(_ any, f, d units.Time) { first, done = f, d }, nil)
	eng.Run()
	wantFirst := par.HostDMAStartup + units.TransferTime(1024, par.HostDMABandwidth)
	if first != wantFirst {
		t.Errorf("first chunk at %v, want %v", first, wantFirst)
	}
	// 4 chunks: 3 chaining overheads.
	wantDone := par.HostDMAStartup + units.TransferTime(4096, par.HostDMABandwidth) + 3*par.ChunkOverhead
	if done != wantDone {
		t.Errorf("done at %v, want %v", done, wantDone)
	}
	if nic.HostDMATransfers != 1 {
		t.Errorf("transfers = %d, want 1 (one chained transaction)", nic.HostDMATransfers)
	}
	if nic.HostDMABusy != wantDone {
		t.Errorf("busy = %v, want %v", nic.HostDMABusy, wantDone)
	}
}

func TestHostDMAChunkedDegenerate(t *testing.T) {
	// A chunk size >= the transfer falls back to one plain DMA:
	// first == done.
	eng := sim.NewEngine()
	par := DefaultParams()
	nic := NewNIC(eng, par)
	var first, done units.Time
	nic.HostDMAChunked(512, 4096, func(_ any, f, d units.Time) { first, done = f, d }, nil)
	eng.Run()
	if first != done {
		t.Errorf("degenerate chunking split the transfer: %v vs %v", first, done)
	}
	want := par.HostDMAStartup + units.TransferTime(512, par.HostDMABandwidth)
	if done != want {
		t.Errorf("done = %v, want %v", done, want)
	}
}

func TestHostDMAChunkedSerialisesWithPlain(t *testing.T) {
	// The engine is one resource: a chunked transfer and a plain one
	// cannot overlap.
	eng := sim.NewEngine()
	par := DefaultParams()
	nic := NewNIC(eng, par)
	var chunkedDone, plainDone units.Time
	nic.HostDMAChunked(8192, 1024, func(_ any, _, d units.Time) { chunkedDone = d }, nil)
	nic.HostDMA(1024, func(_ any, tm units.Time) { plainDone = tm }, nil)
	eng.Run()
	if plainDone <= chunkedDone {
		t.Errorf("plain DMA (%v) overlapped chunked transfer (ends %v)", plainDone, chunkedDone)
	}
}

func TestCPUFreqAndParamsAccessors(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, DefaultParams())
	if nic.CPU.Freq() != 66*units.MHz {
		t.Errorf("Freq = %v", nic.CPU.Freq())
	}
	if nic.Params().HostDMABandwidth != 220*units.MBs {
		t.Errorf("Params = %+v", nic.Params())
	}
}

func TestHostDMAChunkedExactMultiple(t *testing.T) {
	// nbytes an exact multiple of the chunk size: chunks = n/c.
	eng := sim.NewEngine()
	par := DefaultParams()
	nic := NewNIC(eng, par)
	var done units.Time
	nic.HostDMAChunked(2048, 512, func(_ any, _, d units.Time) { done = d }, nil)
	eng.Run()
	want := par.HostDMAStartup + units.TransferTime(2048, par.HostDMABandwidth) + 3*par.ChunkOverhead
	if done != want {
		t.Errorf("done = %v, want %v", done, want)
	}
}
