package lanai

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Params describes one NIC's hardware. Defaults model the paper's
// M2L/M2M-PCI64A-2 cards: a LANai processor (we use 66 MHz), 2 MB of
// SRAM, and a single host DMA engine on a 64-bit/33 MHz PCI bus.
type Params struct {
	// Freq is the LANai processor clock.
	Freq units.Frequency
	// DispatchCycles is the event-handler overhead per dispatched
	// handler.
	DispatchCycles int
	// HostDMABandwidth is the effective host<->NIC transfer rate over
	// the I/O bus. PCI 64/33 peaks at 264 MB/s; sustained transfers
	// see less.
	HostDMABandwidth units.Bandwidth
	// HostDMAStartup is the fixed latency to start one host DMA
	// transaction (bus acquisition, descriptor fetch).
	HostDMAStartup units.Time
	// ChunkOverhead is the per-descriptor cost of every chunk after
	// the first in a chained (chunked) transfer.
	ChunkOverhead units.Time
	// SRAMBytes is the NIC memory size (bounds the buffer pool).
	SRAMBytes int
}

// DefaultParams returns the calibrated testbed NIC constants.
func DefaultParams() Params {
	return Params{
		Freq:             66 * units.MHz,
		DispatchCycles:   2,
		HostDMABandwidth: 220 * units.MBs,
		HostDMAStartup:   500 * units.Nanosecond,
		ChunkOverhead:    120 * units.Nanosecond,
		SRAMBytes:        2 << 20,
	}
}

// NIC aggregates the hardware resources the MCP firmware drives: the
// processor and the single host DMA engine (shared by the SDMA and
// RDMA state machines; the two packet-interface DMAs are modelled by
// the fabric's injection/drain pacing).
type NIC struct {
	eng *sim.Engine
	par Params
	// CPU is the LANai processor.
	CPU *CPU
	// The host DMA engine serialises host<->NIC transfers: dmaCur is
	// the transfer in progress while dmaBusy, dmaQ the requests waiting
	// for it in grant (FIFO) order. dmaDoneFn is the long-lived
	// completion callback shared by every transfer, so a transfer
	// allocates nothing.
	dmaBusy   bool
	dmaCur    dmaReq
	dmaQ      sim.FIFO[dmaReq]
	dmaDoneFn func()
	// HostDMABusy accumulates host DMA engine busy time.
	HostDMABusy units.Time
	// HostDMATransfers counts completed host DMA transactions.
	HostDMATransfers uint64
}

// dmaReq is one host DMA request. A plain transfer (HostDMA) calls
// done when its last byte lands. A chained transfer (HostDMAChunked
// with chunkBytes > 0) calls ready at grant; a degenerate one, stored
// with chunkBytes == 0, calls ready at completion with
// firstAt == doneAt.
type dmaReq struct {
	nbytes     int
	chunkBytes int
	done       func(arg any, t units.Time)
	ready      func(arg any, firstAt, doneAt units.Time)
	arg        any
}

// NewNIC builds a NIC on the shared engine.
func NewNIC(eng *sim.Engine, par Params) *NIC {
	n := &NIC{
		eng: eng,
		par: par,
		CPU: NewCPU(eng, par.Freq, par.DispatchCycles),
	}
	n.dmaDoneFn = n.dmaDone
	return n
}

// Params returns the NIC's hardware constants.
func (n *NIC) Params() Params { return n.par }

// HostDMA performs a host<->NIC transfer of n bytes: it queues on the
// single host DMA engine, pays the startup latency plus the transfer
// time, then runs done(arg, t). Callers model SDMA (host to NIC send
// buffer) and RDMA (NIC receive buffer to host) with it; a long-lived
// done plus a per-transfer arg keeps the transfer allocation-free.
func (n *NIC) HostDMA(nbytes int, done func(arg any, t units.Time), arg any) {
	n.request(dmaReq{nbytes: nbytes, done: done, arg: arg})
}

// HostDMAQueued reports whether transfers are waiting on the engine.
func (n *NIC) HostDMAQueued() int { return n.dmaQ.Len() }

// HostDMAChunked performs a chained host DMA of nbytes in chunks: the
// GM "SDMA chunks" pipeline of the MCP's Figure 4 structure. ready is
// called when the engine grants, with arg, the time the first chunk
// will be in NIC memory (the wire may start then) and the time the
// last byte lands. Every chunk after the first pays the
// descriptor-chaining overhead; the engine stays busy until the final
// chunk. A chunk size of zero or at least nbytes degenerates to a
// single transfer, and ready then runs when it completes.
func (n *NIC) HostDMAChunked(nbytes, chunkBytes int, ready func(arg any, firstAt, doneAt units.Time), arg any) {
	if chunkBytes <= 0 || chunkBytes >= nbytes {
		chunkBytes = 0
	}
	n.request(dmaReq{nbytes: nbytes, chunkBytes: chunkBytes, ready: ready, arg: arg})
}

// request grants the engine at once when it is idle and queues the
// request otherwise.
func (n *NIC) request(r dmaReq) {
	if n.dmaBusy {
		n.dmaQ.Push(r)
		return
	}
	n.dmaBusy = true
	n.grant(r)
}

// grant starts r on the engine and schedules its completion.
func (n *NIC) grant(r dmaReq) {
	n.dmaCur = r
	if r.chunkBytes == 0 {
		d := n.par.HostDMAStartup + units.TransferTime(r.nbytes, n.par.HostDMABandwidth)
		n.HostDMABusy += d
		n.eng.Schedule(d, n.dmaDoneFn)
		return
	}
	now := n.eng.Now()
	chunks := (r.nbytes + r.chunkBytes - 1) / r.chunkBytes
	first := now + n.par.HostDMAStartup + units.TransferTime(r.chunkBytes, n.par.HostDMABandwidth)
	done := now + n.par.HostDMAStartup +
		units.TransferTime(r.nbytes, n.par.HostDMABandwidth) +
		units.Time(chunks-1)*n.par.ChunkOverhead
	n.HostDMABusy += done - now
	r.ready(r.arg, first, done)
	n.eng.ScheduleAt(done, n.dmaDoneFn)
}

// dmaDone completes the transfer in progress: it starts the next
// queued request, counts the transfer, then runs the completion
// callback.
func (n *NIC) dmaDone() {
	r := n.dmaCur
	if n.dmaQ.Len() > 0 {
		n.grant(n.dmaQ.Pop())
	} else {
		n.dmaBusy = false
		n.dmaCur = dmaReq{}
	}
	n.HostDMATransfers++
	switch {
	case r.done != nil:
		r.done(r.arg, n.eng.Now())
	case r.chunkBytes == 0:
		t := n.eng.Now()
		r.ready(r.arg, t, t)
	}
}
