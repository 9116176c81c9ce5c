package mcp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/lanai"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Variant selects the firmware build.
type Variant int

const (
	// Original is stock GM-1.2pre16.
	Original Variant = iota
	// ITB is the paper's modified firmware.
	ITB
)

// String names the firmware build.
func (v Variant) String() string {
	if v == Original {
		return "original MCP"
	}
	return "ITB MCP"
}

// Config parameterises one MCP instance.
type Config struct {
	Variant Variant
	NIC     lanai.Params
	Costs   Costs
	// SendBuffers and RecvBuffers are the NIC queue depths; the
	// paper's implementation keeps the original two of each.
	SendBuffers int
	RecvBuffers int
	// BufferPool enables the paper's proposed (future work) circular
	// receive queue: when every buffer is busy an arriving packet is
	// flushed instead of blocking the network, and GM retransmits it.
	// With BufferPool set, RecvBuffers is the pool size.
	BufferPool bool
	// DisableEarlyRecv is an ablation switch: in-transit packets are
	// detected only at reception completion (store-and-forward)
	// instead of from the Early Recv event after four bytes.
	DisableEarlyRecv bool
	// ReinjectViaDispatch is an ablation switch: the re-injection is
	// programmed through a normal event-dispatch cycle instead of
	// directly from the Recv state machine (the paper's optimisation
	// "avoiding one dispatching cycle delay").
	ReinjectViaDispatch bool
	// SendChunkBytes enables the GM SDMA chunk pipeline (Figure 4's
	// "Send chunks"): the wire transmission starts once the first
	// chunk of a packet is in NIC memory instead of waiting for the
	// whole SDMA. Zero stages whole packets.
	SendChunkBytes int
}

// DefaultConfig returns the faithful configuration of the paper's
// implementation.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:     v,
		NIC:         lanai.DefaultParams(),
		Costs:       DefaultCosts(),
		SendBuffers: 2,
		RecvBuffers: 2,
	}
}

// Stats counts MCP-level activity.
type Stats struct {
	PacketsSent      uint64
	PacketsReceived  uint64 // delivered up to the host
	ITBDetects       uint64 // in-transit markers recognised
	ITBForwarded     uint64 // in-transit packets re-injected
	ITBVCSegments    uint64 // re-injected segments that open with a VC lane pair
	ITBPendingHits   uint64 // re-injections that found the send DMA busy
	PoolDrops        uint64 // packets flushed by the buffer pool
	BlockedArrivals  uint64 // arrivals that waited for a receive buffer
	CRCDrops         uint64 // packets flushed for failing the payload CRC
	StallDrops       uint64 // arrivals flushed while the NIC was stalled
	GossipDigests    uint64 // membership digests consumed from mapping payloads
	GossipPiggybacks uint64 // membership digests consumed off in-transit data packets
}

// sendJob is a packet staged for transmission. Jobs are pooled per
// MCP and travel the send pipeline by pointer: each per-packet handler
// is a plain function of its job, posted with PostArg, ScheduleArg or
// HostDMA, so handing a packet to the next stage allocates nothing.
type sendJob struct {
	m       *MCP
	pkt     *packet.Packet
	onSent  func(arg any, t units.Time) // tail left the NIC
	sentArg any
	// tailReady is when the packet's last byte will be in NIC memory;
	// zero when the whole packet was staged before queueing.
	tailReady units.Time
}

// rxJob is a received packet on its way through the receive-side
// handlers: receive completion and RDMA, or, for an in-transit packet,
// the Early Recv check, ITB detection and re-injection. Pooled like
// sendJob.
type rxJob struct {
	m   *MCP
	pkt *packet.Packet
	// tailReady is when the packet's last byte will be in NIC memory
	// (in-transit packets only).
	tailReady units.Time
}

// MCP is one NIC's firmware instance. It implements fabric.Endpoint.
type MCP struct {
	eng  *sim.Engine
	net  *fabric.Network
	host topology.NodeID
	cfg  Config
	nic  *lanai.NIC

	// Send side. A send buffer is occupied from SubmitSend until the
	// packet's tail leaves the NIC; the wire (send packet DMA) is a
	// single engine shared with ITB re-injections, which take
	// priority via the ITB-packet-pending path.
	sendBufsFree int
	hostQ        sim.FIFO[*sendJob] // waiting for a send buffer / SDMA
	readyQ       sim.FIFO[*sendJob] // in NIC SRAM, waiting for the wire
	itbQ         sim.FIFO[*rxJob]   // pending re-injections (highest priority)
	wireBusy     bool
	// The wire carries one packet at a time: wireSend or wireITB is the
	// job whose tail the fabric will report out (at most one is set),
	// to the tail-out callbacks bound once in New.
	wireSend      *sendJob
	wireITB       *rxJob
	fnSendTailOut func(units.Time)
	fnITBTailOut  func(units.Time)
	sendJobs      sim.FreeList[sendJob]
	rxJobs        sim.FreeList[rxJob]

	// Receive side.
	recvBufsFree int
	waiting      sim.FIFO[*fabric.Flight] // blocked arrivals (no buffer pool)
	inTransit    map[*packet.Packet]bool

	// Injected fault state (campaign-driven). A stalled NIC flushes
	// every arrival and stops feeding the wire; an exhausted pool
	// behaves as if every receive buffer were busy. Both are
	// survivable: GM's reliability layer retransmits the flushed
	// packets once the fault clears (or gives the dead-peer verdict if
	// it never does).
	stalled   bool
	exhausted bool

	// OnDeliver is called when a packet has been RDMA-ed to the host.
	OnDeliver func(pkt *packet.Packet, t units.Time)
	// OnMapping is called (on the mapper host) when a mapping packet
	// addressed to this host's own mapper arrives: a self-returned
	// scout, a reply from a remote NIC, or — in gossip mode — an
	// indirect-probe request or acknowledgement for the local failure
	// detector. Other NICs leave it nil; their MCP answers probes
	// autonomously.
	OnMapping func(m packet.Mapping, t units.Time)
	// OnGossip is called with every membership digest this firmware
	// consumes: digests riding mapping payloads, and digests
	// piggybacked on data packets crossing this host in transit. Nil
	// outside gossip mode.
	OnGossip func(entries []packet.GossipEntry, t units.Time)
	// ProbeDigest, when set, supplies the membership digest the MCP
	// attaches to its autonomous probe replies — the refutation channel
	// of the gossip detector: a probed host's reply always carries its
	// own current incarnation. Nil outside gossip mode.
	ProbeDigest func() []packet.GossipEntry

	tracer *trace.Recorder
	stats  Stats

	// Queue-depth high-water gauges (nil when metrics are disabled;
	// SetMax no-ops on nil receivers, so the queueing paths update them
	// unconditionally at the cost of a nil check).
	gHostQ  *metrics.Gauge
	gReadyQ *metrics.Gauge
	gITBQ   *metrics.Gauge
	gWaitQ  *metrics.Gauge
}

// New builds the firmware for one host NIC and attaches it to the
// network.
func New(net *fabric.Network, host topology.NodeID, cfg Config) *MCP {
	if cfg.SendBuffers < 1 || cfg.RecvBuffers < 1 {
		panic("mcp: need at least one send and one receive buffer")
	}
	// Buffers live in NIC SRAM; a 4KB-MTU slot per buffer must fit in
	// the card's memory (the paper notes 2-8 MB parts, "enough to
	// minimize" overflow).
	const slot = 4096 + 64
	if cfg.NIC.SRAMBytes > 0 && (cfg.SendBuffers+cfg.RecvBuffers)*slot > cfg.NIC.SRAMBytes {
		panic(fmt.Sprintf("mcp: %d buffers exceed the NIC's %d-byte SRAM",
			cfg.SendBuffers+cfg.RecvBuffers, cfg.NIC.SRAMBytes))
	}
	m := &MCP{
		eng:          net.Engine(),
		net:          net,
		host:         host,
		cfg:          cfg,
		nic:          lanai.NewNIC(net.Engine(), cfg.NIC),
		sendBufsFree: cfg.SendBuffers,
		recvBufsFree: cfg.RecvBuffers,
		inTransit:    make(map[*packet.Packet]bool),
	}
	m.fnSendTailOut = m.sendTailOut
	m.fnITBTailOut = m.itbTailOut
	net.Attach(host, m)
	return m
}

// Host returns the host node this firmware serves.
func (m *MCP) Host() topology.NodeID { return m.host }

// Stats returns a snapshot of the counters.
func (m *MCP) Stats() Stats { return m.stats }

// NIC returns the underlying hardware model.
func (m *MCP) NIC() *lanai.NIC { return m.nic }

// Network returns the fabric this firmware's NIC is cabled into.
func (m *MCP) Network() *fabric.Network { return m.net }

// Engine returns the event engine driving this firmware.
func (m *MCP) Engine() *sim.Engine { return m.eng }

// Config returns the firmware configuration.
func (m *MCP) Config() Config { return m.cfg }

// SetTracer attaches an event recorder (nil to detach).
func (m *MCP) SetTracer(r *trace.Recorder) { m.tracer = r }

// SetMetrics attaches a registry (nil to detach): the firmware keeps
// per-queue high-water gauges live as it runs; the counter snapshot is
// published by PublishMetrics at end of run.
func (m *MCP) SetMetrics(r *metrics.Registry) {
	pfx := fmt.Sprintf("mcp.host%d.", m.host)
	m.gHostQ = r.Gauge(pfx + "peak_hostq")
	m.gReadyQ = r.Gauge(pfx + "peak_readyq")
	m.gITBQ = r.Gauge(pfx + "peak_itbq")
	m.gWaitQ = r.Gauge(pfx + "peak_waitq")
}

// PublishMetrics dumps the firmware counters into r under
// mcp.host<N>.*. Zero counters are skipped to keep snapshots compact.
func (m *MCP) PublishMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	pfx := fmt.Sprintf("mcp.host%d.", m.host)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"packets_sent", m.stats.PacketsSent},
		{"packets_received", m.stats.PacketsReceived},
		{"itb_detects", m.stats.ITBDetects},
		{"itb_forwarded", m.stats.ITBForwarded},
		{"itb_vc_segments", m.stats.ITBVCSegments},
		{"itb_pending_hits", m.stats.ITBPendingHits},
		{"pool_drops", m.stats.PoolDrops},
		{"blocked_arrivals", m.stats.BlockedArrivals},
		{"crc_drops", m.stats.CRCDrops},
		{"stall_drops", m.stats.StallDrops},
		{"gossip_digests", m.stats.GossipDigests},
		{"gossip_piggybacks", m.stats.GossipPiggybacks},
	} {
		if c.v != 0 {
			r.Counter(pfx + c.name).Add(c.v)
		}
	}
}

func (m *MCP) emit(k trace.Kind, pktID uint64, detail string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(trace.Event{At: m.eng.Now(), Kind: k, Node: m.host, Packet: pktID, Detail: detail})
}

// ---------------------------------------------------------------
// Send path: host -> SDMA -> NIC buffer -> Send state machine -> wire.

// SubmitSend queues a packet for transmission. onSent (optional) runs
// with arg when the packet's tail has left the NIC. The route bytes
// must already be stamped in pkt.Route (GM stamps them from the
// mapper's table when the send is enqueued).
func (m *MCP) SubmitSend(pkt *packet.Packet, onSent func(arg any, t units.Time), arg any) {
	m.net.TagPacket(pkt)
	m.emit(trace.SendQueued, pkt.ID, pkt.Type.String())
	job := m.sendJobs.Get()
	job.m, job.pkt, job.onSent, job.sentArg = m, pkt, onSent, arg
	if m.sendBufsFree == 0 {
		m.hostQ.Push(job)
		m.gHostQ.SetMax(float64(m.hostQ.Len()))
		return
	}
	m.sendBufsFree--
	m.startSDMA(job)
}

// startSDMA moves the packet from host memory into a NIC send buffer.
// With chunking the packet becomes wire-eligible after its first
// chunk; the fabric paces the tail on the SDMA's completion.
func (m *MCP) startSDMA(job *sendJob) {
	m.nic.CPU.PostArg(lanai.PrioDMA, m.cfg.Costs.SDMASetupCycles, sdma, job)
}

// sdma is the SDMA setup handler: it programs the host DMA.
func sdma(arg any) {
	job := arg.(*sendJob)
	m := job.m
	if m.cfg.SendChunkBytes > 0 {
		m.nic.HostDMAChunked(job.pkt.WireLen(), m.cfg.SendChunkBytes, sdmaChunked, job)
		return
	}
	m.nic.HostDMA(job.pkt.WireLen(), sdmaDone, job)
}

// sdmaChunked runs when a chunked SDMA is granted: the packet becomes
// wire-eligible once its first chunk is in.
func sdmaChunked(arg any, firstAt, doneAt units.Time) {
	job := arg.(*sendJob)
	job.tailReady = doneAt
	job.m.eng.ScheduleArgAt(firstAt, staged, job)
}

// sdmaDone runs when a whole-packet SDMA completes.
func sdmaDone(arg any, _ units.Time) { staged(arg) }

// staged queues a packet in NIC SRAM for the wire.
func staged(arg any) {
	job := arg.(*sendJob)
	m := job.m
	m.readyQ.Push(job)
	m.gReadyQ.SetMax(float64(m.readyQ.Len()))
	m.tryWire()
}

// SetStalled wedges (or revives) the NIC: while stalled it flushes
// every arriving packet and stops feeding the wire. Intended for fault
// campaigns; resuming re-pumps the send path.
func (m *MCP) SetStalled(stalled bool) {
	if m.stalled == stalled {
		return
	}
	m.stalled = stalled
	detail := "resume"
	if stalled {
		detail = "stall"
	}
	m.emit(trace.NICFault, 0, detail)
	if !stalled {
		m.tryWire()
	}
}

// SetPoolExhausted makes the receive side behave as if every buffer
// were busy: arrivals are flushed (buffer pool) or blocked (faithful
// two-buffer config) until the exhaustion clears.
func (m *MCP) SetPoolExhausted(exhausted bool) {
	if m.exhausted == exhausted {
		return
	}
	m.exhausted = exhausted
	detail := "pool-restore"
	if exhausted {
		detail = "pool-exhaust"
	}
	m.emit(trace.NICFault, 0, detail)
	if !exhausted {
		m.admitWaiting()
	}
}

// admitWaiting drains blocked arrivals into freed buffers after an
// exhaustion clears.
func (m *MCP) admitWaiting() {
	for m.recvBufsFree > 0 && m.waiting.Len() > 0 {
		m.recvBufsFree--
		m.acceptFlight(m.waiting.Pop())
	}
}

// tryWire starts the next transmission if the wire engine is free.
// ITB re-injections always win over normal sends (the high-priority
// "ITB packet pending" path of Figure 5).
func (m *MCP) tryWire() {
	if m.wireBusy || m.stalled {
		return
	}
	if m.itbQ.Len() > 0 {
		m.wireBusy = true
		m.programReinjection(m.itbQ.Pop())
		return
	}
	if m.readyQ.Len() == 0 {
		return
	}
	m.wireBusy = true
	m.nic.CPU.PostArg(lanai.PrioSend, m.cfg.Costs.SendSetupCycles, injectSend, m.readyQ.Pop())
}

// injectSend is the send setup handler: the packet goes on the wire.
func injectSend(arg any) {
	job := arg.(*sendJob)
	m := job.m
	m.wireSend = job
	m.net.Inject(job.pkt, m.host, fabric.InjectOpts{
		TailReadyAt: job.tailReady,
		OnTailOut:   m.fnSendTailOut,
	})
}

// sendTailOut runs when a sent packet's tail has left the NIC: the
// send buffer and the wire are free again.
func (m *MCP) sendTailOut(t units.Time) {
	job := m.wireSend
	m.wireSend = nil
	onSent, arg := job.onSent, job.sentArg
	m.sendJobs.Put(job)
	m.stats.PacketsSent++
	m.wireBusy = false
	m.sendBufsFree++
	// A queued host send can now claim the freed buffer.
	if m.hostQ.Len() > 0 {
		m.sendBufsFree--
		m.startSDMA(m.hostQ.Pop())
	}
	if onSent != nil {
		onSent(arg, t)
	}
	m.tryWire()
}

// ---------------------------------------------------------------
// Receive path.

// HeaderArrived implements fabric.Endpoint.
func (m *MCP) HeaderArrived(f *fabric.Flight) {
	if m.stalled {
		// A wedged NIC drains arriving packets into nothing; GM
		// retransmits them after the stall.
		m.stats.StallDrops++
		m.emit(trace.Dropped, f.Packet().ID, "stall")
		f.Drop()
		return
	}
	if m.recvBufsFree == 0 || m.exhausted {
		if m.cfg.BufferPool {
			// The circular queue is full: flush the packet; GM's
			// reliability layer will retransmit it.
			m.stats.PoolDrops++
			f.Drop()
			return
		}
		m.stats.BlockedArrivals++
		m.waiting.Push(f)
		m.gWaitQ.SetMax(float64(m.waiting.Len()))
		return
	}
	m.recvBufsFree--
	m.acceptFlight(f)
}

// acceptFlight programs the receive DMA for the arriving packet and,
// on the ITB firmware, arms the Early Recv event for when the first
// four bytes are in. The packet and completion time are captured here:
// the early-recv handler may run after a short packet has fully
// arrived, at which point the Flight object is no longer ours to read
// (the fabric recycles finished flights).
func (m *MCP) acceptFlight(f *fabric.Flight) {
	f.Accept()
	if m.cfg.Variant != ITB || m.cfg.DisableEarlyRecv {
		return
	}
	fourBytes := 4 * m.net.Params().ByteTime()
	m.eng.ScheduleArg(fourBytes, earlyArm, m.newRxJob(f.Packet(), f.CompletionTime()))
}

// newRxJob takes a pooled rxJob for pkt.
func (m *MCP) newRxJob(pkt *packet.Packet, tailReady units.Time) *rxJob {
	j := m.rxJobs.Get()
	j.m, j.pkt, j.tailReady = m, pkt, tailReady
	return j
}

// earlyArm raises the Early Recv event once the first four bytes are
// in.
func earlyArm(arg any) {
	m := arg.(*rxJob).m
	m.nic.CPU.PostArg(lanai.PrioITB, m.cfg.Costs.EarlyRecvCheckCycles, earlyRecv, arg)
}

// earlyRecv is the Early Recv Packet event handler: the first four
// bytes of the packet are visible, enough to see the ITB marker.
func earlyRecv(arg any) {
	j := arg.(*rxJob)
	if !j.pkt.AtITBBoundary() {
		// A normal packet (or an ITB-routed packet at its final
		// destination): resume normal dispatching. The check's cost
		// has already been charged — that is the Figure 7 overhead.
		j.m.rxJobs.Put(j)
		return
	}
	j.m.detectAndForward(j)
}

// detectAndForward handles a detected in-transit packet: it pays the
// detection cost, pops the ITB header and re-injects (or raises the
// pending flag). j.tailReady is when the packet's last byte will be in
// NIC memory — the re-injection may start earlier (cut-through) but
// cannot stream faster than that.
func (m *MCP) detectAndForward(j *rxJob) {
	pkt := j.pkt
	m.stats.ITBDetects++
	m.emit(trace.ITBDetect, pkt.ID, "")
	m.inTransit[pkt] = true
	prio := lanai.PrioITB
	detect := m.cfg.Costs.ITBDetectCycles
	if m.cfg.ReinjectViaDispatch {
		// Ablation: the detection result goes back through the event
		// handler at normal priority instead of the Recv fast path.
		prio = lanai.PrioSend
		detect += m.cfg.NIC.DispatchCycles
	}
	m.nic.CPU.PostArg(prio, detect, detected, j)
}

// detected is the ITB detection handler: it pops the ITB header and
// re-injects the packet, or raises ITB packet pending.
func detected(arg any) {
	j := arg.(*rxJob)
	m, pkt := j.m, j.pkt
	if len(pkt.Gossip) > 0 && m.OnGossip != nil {
		// A data packet crossing this host in transit carries a
		// piggybacked membership digest: consume it (the header is
		// already in SRAM at detection time) but leave it on the
		// packet, so one stamped packet seeds every ITB host on its
		// route.
		if entries, _, err := packet.ParseGossipDigest(pkt.Gossip); err == nil {
			m.stats.GossipPiggybacks++
			m.OnGossip(entries, m.eng.Now())
		}
	}
	if _, err := pkt.PopITBHeader(); err != nil {
		// Corrupt in-transit header: flush the packet; reception
		// still completes into the buffer, which is freed there.
		m.inTransit[pkt] = false
		m.rxJobs.Put(j)
		return
	}
	if pkt.AtVCBoundary() {
		// The re-injected segment selects a virtual lane at its
		// first switch: the ITB and VC mechanisms composing on one
		// route (the ablation's combined arm). The firmware itself
		// needs no lane awareness — the pair rides in the route
		// bytes it forwards untouched.
		m.stats.ITBVCSegments++
	}
	if m.wireBusy {
		// Send engine busy: raise ITB packet pending; the wire
		// completion path drains itbQ first.
		m.stats.ITBPendingHits++
		m.emit(trace.ITBPending, pkt.ID, "")
		m.itbQ.Push(j)
		m.gITBQ.SetMax(float64(m.itbQ.Len()))
		return
	}
	m.wireBusy = true
	m.programReinjection(j)
}

// programReinjection programs the send DMA with the in-transit packet
// (possibly while it is still being received — virtual cut-through)
// and injects it.
func (m *MCP) programReinjection(j *rxJob) {
	m.emit(trace.ITBReinject, j.pkt.ID, "")
	m.nic.CPU.PostArg(lanai.PrioITB, m.cfg.Costs.ProgramSendDMACycles, programmed, j)
}

// programmed runs once the send DMA is programmed: the re-injection
// starts after the DMA's startup latency.
func programmed(arg any) {
	m := arg.(*rxJob).m
	m.eng.ScheduleArg(m.cfg.Costs.SendDMAStartup, injectITB, arg)
}

// injectITB puts the in-transit packet back on the wire.
func injectITB(arg any) {
	j := arg.(*rxJob)
	m := j.m
	m.wireITB = j
	m.net.Inject(j.pkt, m.host, fabric.InjectOpts{
		TailReadyAt: j.tailReady,
		OnTailOut:   m.fnITBTailOut,
	})
}

// itbTailOut runs when a re-injected packet's tail has left the NIC.
func (m *MCP) itbTailOut(units.Time) {
	j := m.wireITB
	m.wireITB = nil
	pkt := j.pkt
	m.rxJobs.Put(j)
	m.stats.ITBForwarded++
	m.wireBusy = false
	// The in-transit packet has fully left: free its receive buffer and
	// re-arm a reception.
	delete(m.inTransit, pkt)
	m.releaseRecvBuffer()
	m.tryWire()
}

// PacketReceived implements fabric.Endpoint: the packet tail is fully
// in the NIC receive buffer.
func (m *MCP) PacketReceived(pkt *packet.Packet, headerAt, completedAt units.Time) {
	if forward, ok := m.inTransit[pkt]; ok || pkt.AtITBBoundary() {
		// An in-transit packet: its buffer is freed when the
		// re-injection's tail leaves (programReinjection), except for
		// corrupt ones (forward == false), flushed here.
		if ok && !forward {
			delete(m.inTransit, pkt)
			m.releaseRecvBuffer()
			// Corrupt-header flush: the in-transit packet dies in this
			// NIC with no other live reference (early-recv and the
			// detect event have both run).
			packet.Recycle(pkt)
			return
		}
		if !ok && m.cfg.Variant == ITB && m.cfg.DisableEarlyRecv {
			// Ablation: store-and-forward detection happens only now,
			// with the whole packet already in the buffer.
			m.detectAndForward(m.newRxJob(pkt, completedAt))
		}
		return
	}
	cycles := m.cfg.Costs.RecvCompleteCycles
	if m.cfg.Variant == ITB {
		cycles += m.cfg.Costs.RecvCompleteITBExtraCycles
	}
	if pkt.Corrupt {
		// The payload CRC fails at this final destination: flush the
		// packet; GM's reliability layer will retransmit it (its ack
		// never goes out). In-transit hosts never reach this point —
		// cut-through re-injects before the tail (and its CRC) is in,
		// so corruption rides through ITB hops, exactly as on real
		// hardware.
		m.nic.CPU.PostArg(lanai.PrioRecv, cycles, crcDrop, m.newRxJob(pkt, 0))
		return
	}
	if pkt.Type == packet.TypeMapping {
		// Mapping packets are handled inside the MCP, below GM.
		m.nic.CPU.PostArg(lanai.PrioRecv, cycles, mappingRecv, m.newRxJob(pkt, 0))
		return
	}
	m.nic.CPU.PostArg(lanai.PrioRecv, cycles, recvDone, m.newRxJob(pkt, 0))
}

// takeRx returns a receive-completion job's MCP and packet and
// recycles the job.
func takeRx(arg any) (*MCP, *packet.Packet) {
	j := arg.(*rxJob)
	m, pkt := j.m, j.pkt
	m.rxJobs.Put(j)
	return m, pkt
}

// crcDrop is the receive completion of a packet that fails its CRC.
func crcDrop(arg any) {
	m, pkt := takeRx(arg)
	m.stats.CRCDrops++
	m.emit(trace.Dropped, pkt.ID, "crc")
	m.releaseRecvBuffer()
	// The flushed wire packet is dead; its sender retransmits from the
	// retained original, never from this copy.
	packet.Recycle(pkt)
}

// mappingRecv is the receive completion of a mapping packet.
func mappingRecv(arg any) {
	m, pkt := takeRx(arg)
	m.handleMapping(pkt)
	m.releaseRecvBuffer()
}

// recvDone is the receive completion of a data packet: RDMA the
// payload to host memory.
func recvDone(arg any) {
	m := arg.(*rxJob).m
	m.nic.CPU.PostArg(lanai.PrioDMA, m.cfg.Costs.RDMASetupCycles, rdma, arg)
}

// rdma is the RDMA setup handler.
func rdma(arg any) {
	j := arg.(*rxJob)
	j.m.nic.HostDMA(len(j.pkt.Payload), rdmaDone, j)
}

// rdmaDone delivers the packet to the host once the RDMA completes.
func rdmaDone(arg any, t units.Time) {
	m, pkt := takeRx(arg)
	m.stats.PacketsReceived++
	m.emit(trace.RecvToHost, pkt.ID, "")
	if m.OnDeliver != nil {
		m.OnDeliver(pkt, t)
	}
	m.releaseRecvBuffer()
}

// handleMapping implements the MCP side of the network-mapping
// protocol: probes from a remote mapper are answered with this host's
// identity along the return route the probe carries; self-returned
// scouts and replies are handed to the local mapper, if any.
func (m *MCP) handleMapping(pkt *packet.Packet) {
	mp, err := packet.DecodeMapping(pkt.Payload)
	if err != nil {
		return // malformed scout: flush
	}
	if len(mp.Digest) > 0 && m.OnGossip != nil {
		// Any mapping payload may carry a piggybacked membership
		// digest; consume it here so every handler below sees a
		// detector already updated with the sender's view.
		m.stats.GossipDigests++
		m.OnGossip(mp.Digest, m.eng.Now())
	}
	switch {
	case mp.Kind == packet.MappingReply,
		mp.Kind == packet.MappingPingReq,
		mp.Kind == packet.MappingPingAck,
		mp.Kind == packet.MappingProbe && mp.Origin == int32(m.host):
		// Addressed to the mapper or failure-detector agent running on
		// this host. Indirect-probe relaying needs routes the firmware
		// does not have, so ping-reqs go up to the agent too; without
		// one they die here, exactly as a relay that cannot help.
		if m.OnMapping != nil {
			m.OnMapping(mp, m.eng.Now())
		}
	default:
		// A foreign probe: answer with our identity. A probe with an
		// empty return route cannot be answered (the mapper was still
		// bootstrapping its own attach port); inject anyway — the
		// fabric flushes the route-less reply at the first switch,
		// exactly as real misaddressed scouts die.
		var digest []packet.GossipEntry
		if m.ProbeDigest != nil {
			digest = m.ProbeDigest()
		}
		reply := &packet.Packet{
			Route: append([]byte(nil), mp.ReturnRoute...),
			Type:  packet.TypeMapping,
			Src:   int(m.host),
			Dst:   int(mp.Origin),
			Payload: packet.EncodeMapping(packet.Mapping{
				Kind:   packet.MappingReply,
				Nonce:  mp.Nonce,
				Origin: int32(m.host),
				Digest: digest,
			}),
		}
		m.SubmitSend(reply, nil, nil)
	}
}

// releaseRecvBuffer re-arms a reception and admits a blocked arrival
// if one is waiting.
func (m *MCP) releaseRecvBuffer() {
	m.nic.CPU.PostArg(lanai.PrioRecv, m.cfg.Costs.ProgramRecvCycles, programRecv, m)
}

// programRecv is the handler that re-arms a reception.
func programRecv(arg any) {
	m := arg.(*MCP)
	if !m.exhausted && m.waiting.Len() > 0 {
		m.acceptFlight(m.waiting.Pop())
		return
	}
	m.recvBufsFree++
}

// String identifies the instance in traces.
func (m *MCP) String() string {
	return fmt.Sprintf("%s@host%d", m.cfg.Variant, m.host)
}
