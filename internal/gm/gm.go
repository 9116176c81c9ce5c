// Package gm models the host-visible side of the GM message system:
// user-level send/receive with reliable, ordered delivery over the
// (unreliable, droppable) MCP/fabric substrate, message segmentation
// at the GM MTU, and the gm_allsize latency test the paper's
// evaluation is built on.
package gm

import (
	"fmt"

	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Params configures the host-side GM behaviour.
type Params struct {
	// HostSendOverhead is the user-level gm_send() CPU cost before
	// the NIC sees the request.
	HostSendOverhead units.Time
	// HostRecvOverhead is the user-level receive-event cost after the
	// NIC delivers.
	HostRecvOverhead units.Time
	// MTU is the largest payload per packet; longer messages are
	// segmented.
	MTU int
	// Window is the go-back-N send window per destination.
	Window int
	// AckTimeout triggers retransmission of unacknowledged packets.
	AckTimeout units.Time
	// DisableAcks turns off the reliability layer (no acks, no
	// retransmission) for raw-network experiments. A raw host keeps no
	// conn: each packet goes on the wire as it is, stamped from a
	// per-peer sequence counter, and its outcome settles when its tail
	// leaves the NIC. Acks that reach a raw host are discarded.
	DisableAcks bool
	// BackoffFactor multiplies the retransmit timeout after every
	// barren timeout (exponential backoff); acknowledgement progress
	// resets it to AckTimeout. Values <= 1 keep the timeout fixed
	// (the original GM behaviour).
	BackoffFactor float64
	// MaxAckTimeout caps the backed-off timeout. Zero leaves the
	// backoff uncapped.
	MaxAckTimeout units.Time
	// DeadPeerTimeouts is the per-peer dead verdict: after this many
	// consecutive timeouts without acknowledgement progress the peer is
	// declared dead, every pending message to it is reported failed,
	// and later sends to it fail immediately. Zero (the default)
	// disables the verdict and GM retries forever, as stock GM does.
	DeadPeerTimeouts int
}

// DefaultParams returns constants calibrated to a 450 MHz Pentium III
// host of the paper's era running GM over 64/33 PCI.
func DefaultParams() Params {
	return Params{
		HostSendOverhead: 3 * units.Microsecond,
		HostRecvOverhead: 3 * units.Microsecond,
		MTU:              4096,
		Window:           8,
		AckTimeout:       2 * units.Millisecond,
		DisableAcks:      false,
	}
}

// Stats counts GM-level activity on one host.
type Stats struct {
	MessagesSent     uint64
	MessagesReceived uint64
	PacketsSent      uint64
	AcksSent         uint64
	Retransmits      uint64
	OutOfOrderDrops  uint64
	DuplicateDrops   uint64
	// BackoffExpansions counts barren timeouts that expanded the
	// retransmit timeout (Params.BackoffFactor).
	BackoffExpansions uint64
	// PeersDeclaredDead counts dead-peer verdicts issued.
	PeersDeclaredDead uint64
	// MessagesFailed counts messages reported failed (dead peer or no
	// route at send time).
	MessagesFailed uint64
	// EpochStaleDrops counts packets and acks discarded because they
	// carried an epoch older than the connection's incarnation.
	EpochStaleDrops uint64
	// ConnsResurrected counts dead-peer verdicts reversed by an
	// epoch-versioned table install (recovery protocol).
	ConnsResurrected uint64
	// PacketsRerouted counts pending packets whose stamped route was
	// rewritten by a table install.
	PacketsRerouted uint64
}

// Host is one workstation's GM endpoint: it owns the MCP beneath it
// and the per-peer state: a conn per peer for reliable ordered
// delivery, or with acks off a sequence counter per peer.
type Host struct {
	eng  *sim.Engine
	m    *mcp.MCP
	node topology.NodeID
	par  Params
	tbl  *routing.Table

	// conns is indexed by peer NodeID (nil where no conn exists yet)
	// and grown on first use; conns are never deleted. A raw host
	// keeps none.
	conns []*conn
	// rawSeq is a raw host's next sequence number per peer, indexed by
	// NodeID and sized to the topology at construction. rawAsm holds
	// the fragments of each sender's in-progress multi-fragment
	// message; a single-fragment message never enters it.
	rawSeq []uint32
	rawAsm map[topology.NodeID][]byte

	ports map[uint8]*Port
	msgID uint32
	// epoch is the version of the installed route table (0 until the
	// recovery protocol publishes one); a resurrected conn restarts its
	// stream under it as its incarnation.
	epoch uint32

	// OnMessage delivers a complete, in-order message to the
	// application. The payload is GM's receive buffer: it is valid
	// until OnMessage returns, and a handler that keeps the bytes
	// copies them.
	OnMessage func(src topology.NodeID, payload []byte, t units.Time)
	// OnPeerDead fires when the dead-peer verdict is issued for a peer
	// (Params.DeadPeerTimeouts).
	OnPeerDead func(peer topology.NodeID, t units.Time)
	// GossipStamp, when set, is asked for an encoded membership digest
	// for each outgoing data packet; a non-nil return is piggybacked on
	// the packet header (packet.Packet.Gossip) for in-transit hosts to
	// consume. The stamping agent owns the budget — it returns nil for
	// packets that should not pay the header tax. Nil outside gossip
	// mode.
	GossipStamp func() []byte

	tracer *trace.Recorder
	stats  Stats

	// sentRecs pools the records that name the packet behind each
	// SubmitSend completion (sent); sendOps and recvOps pool the
	// per-message records that wait out the host send and receive
	// overheads (segment, message). Passing a pooled record to a plain
	// function allocates nothing.
	sentRecs sim.FreeList[sentRec]
	sendOps  sim.FreeList[sendOp]
	recvOps  sim.FreeList[recvOp]
	// settle is handleAck's reusable batch of outcomes to settle.
	settle []outcome
}

// sendOp is one gm_send call waiting out the host send overhead.
type sendOp struct {
	h                *Host
	peer             topology.NodeID
	payload, route   []byte
	typ              packet.Type
	srcPort, dstPort uint8
	id               uint32
	o                outcome
}

// recvOp is one reassembled message waiting out the host receive
// overhead.
type recvOp struct {
	h                *Host
	peer             topology.NodeID
	srcPort, dstPort uint8
	msg              []byte
}

// sentRec names one transmitted packet: the peer and sequence number
// whose send-buffer state its tail leaving the NIC settles (sent). A
// raw host's record carries the packet's outcome instead, which the
// tail leaving settles (sentRaw).
type sentRec struct {
	h    *Host
	peer topology.NodeID
	seq  uint32
	outcome
}

// SetTracer attaches an event recorder (nil to detach).
func (h *Host) SetTracer(r *trace.Recorder) { h.tracer = r }

func (h *Host) emit(k trace.Kind, pktID uint64, detail string) {
	if h.tracer == nil {
		return
	}
	h.tracer.Record(trace.Event{At: h.eng.Now(), Kind: k, Node: h.node, Packet: pktID, Detail: detail})
}

// NewHost wraps an MCP instance with the GM host layer. tbl supplies
// default routes; it may be nil if every send uses SendVia.
func NewHost(eng *sim.Engine, m *mcp.MCP, tbl *routing.Table, par Params) *Host {
	if par.MTU <= 0 {
		panic("gm: non-positive MTU")
	}
	if par.Window <= 0 {
		panic("gm: non-positive window")
	}
	h := &Host{
		eng:  eng,
		m:    m,
		node: m.Host(),
		par:  par,
		tbl:  tbl,
	}
	if par.DisableAcks {
		h.rawSeq = make([]uint32, m.Network().Topology().NumNodes())
	}
	m.OnDeliver = h.deliver
	return h
}

// Node returns the host's topology node.
func (h *Host) Node() topology.NodeID { return h.node }

// Table returns the host's current route table: the construction-time
// table until an install replaces it. Decentralized recovery gives
// every host its own table, so inspection is per-host.
func (h *Host) Table() *routing.Table { return h.tbl }

// Epoch returns the epoch of the installed route table (0 until the
// first install).
func (h *Host) Epoch() uint32 { return h.epoch }

// InstallTable is how the recovery protocol replaces the route table:
// it installs an epoch-versioned table and reconciles with it, in peer
// order (deterministic), every connection that is dead or has packets
// pending:
//
//   - A peer the new table routes to again after a dead verdict is
//     resurrected: the verdict is lifted and the go-back-N stream
//     restarts at sequence zero under a new incarnation (the epoch),
//     so stale packets and acks from the old stream are recognisable
//     and dropped rather than desynchronising the window.
//   - A live peer with packets pending keeps its stream, but accrued
//     strikes and backoff are cleared (the new table may route around
//     whatever caused them) and the pending packets are re-stamped
//     with the new route — the mapper rewriting the NIC's route SRAM
//     rescues in-flight traffic whose old route died.
//   - A peer the new table cannot reach at all has its pending
//     traffic failed immediately (graceful degradation instead of
//     retransmitting into a void until the verdict).
//
// A live conn with nothing pending is left alone: its strikes and
// timeout are already at rest (strikes accrue only while the window
// holds packets, and the ack that empties it resets both), and its
// next send reads its route from the new table. A dead conn whose
// peer the new table's exclusion set holds dead is left alone too: the
// table cannot route to it, so it would stay dead. The install thus
// looks up only the busy peers and the dead ones the table may route
// to again, which on a lazily rebuilt table is all it resolves. A raw
// host (Params.DisableAcks) keeps no conns and nothing pending, so the
// install only swaps its table.
func (h *Host) InstallTable(tbl *routing.Table, epoch uint32) {
	if epoch < h.epoch {
		// Staggered installs from overlapping publishes can arrive out
		// of order; a stale epoch must not overwrite a newer table.
		return
	}
	h.tbl = tbl
	if epoch > h.epoch {
		h.epoch = epoch
	}
	for _, c := range h.conns {
		if c == nil || (!c.dead && len(c.inflight) == 0 && c.backlog.Len() == 0) || (c.dead && tbl.Avoids(c.peer)) {
			continue
		}
		r, ok := tbl.Lookup(h.node, c.peer)
		switch {
		case !ok:
			if !c.dead {
				c.declareDead()
			}
		case c.dead:
			c.resurrect(h.epoch)
		default:
			c.strikes = 0
			c.curTimeout = h.par.AckTimeout
			if hdr, err := r.EncodeHeader(); err == nil {
				c.restampRoutes(hdr, packetTypeFor(r))
			}
		}
	}
}

// PeerDead reports whether the dead-peer verdict was issued for dst.
func (h *Host) PeerDead(dst topology.NodeID) bool {
	if uint(dst) >= uint(len(h.conns)) {
		return false
	}
	c := h.conns[dst]
	return c != nil && c.dead
}

// MCP returns the firmware under this host.
func (h *Host) MCP() *mcp.MCP { return h.m }

// Stats returns a snapshot of the counters.
func (h *Host) Stats() Stats { return h.stats }

// PublishMetrics dumps the GM counters into r under gm.host<N>.*.
// Zero counters are skipped to keep snapshots compact.
func (h *Host) PublishMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	pfx := fmt.Sprintf("gm.host%d.", h.node)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"messages_sent", h.stats.MessagesSent},
		{"messages_received", h.stats.MessagesReceived},
		{"packets_sent", h.stats.PacketsSent},
		{"acks_sent", h.stats.AcksSent},
		{"retransmits", h.stats.Retransmits},
		{"out_of_order_drops", h.stats.OutOfOrderDrops},
		{"duplicate_drops", h.stats.DuplicateDrops},
		{"backoff_expansions", h.stats.BackoffExpansions},
		{"peers_declared_dead", h.stats.PeersDeclaredDead},
		{"messages_failed", h.stats.MessagesFailed},
		{"epoch_stale_drops", h.stats.EpochStaleDrops},
		{"conns_resurrected", h.stats.ConnsResurrected},
		{"packets_rerouted", h.stats.PacketsRerouted},
	} {
		if c.v != 0 {
			r.Counter(pfx + c.name).Add(c.v)
		}
	}
}

// packetTypeFor returns the wire type a route requires.
func packetTypeFor(r *routing.Route) packet.Type {
	if r.NumITBs() > 0 {
		return packet.TypeITB
	}
	return packet.TypeGM
}

// Send transmits payload to dst using the route table. GM reads the
// payload once, when it segments the message into packets after the
// host send overhead, so the caller must not modify it until the
// send's outcome.
func (h *Host) Send(dst topology.NodeID, payload []byte) error {
	return h.SendTracked(dst, payload, nil, nil)
}

// SendTracked is Send with message-outcome callbacks: onAcked fires
// when GM has acknowledged the whole message, onFailed when the
// message is abandoned by the dead-peer verdict. Exactly one of the
// two eventually fires (when a non-nil error is returned, neither
// does: the message was never accepted). Fault campaigns use this to
// account for every message as delivered or reported dropped. As with
// Send, the caller must not modify payload until the outcome.
func (h *Host) SendTracked(dst topology.NodeID, payload []byte, onAcked, onFailed func()) error {
	if h.tbl == nil {
		return fmt.Errorf("gm: host %d has no route table", h.node)
	}
	if h.PeerDead(dst) {
		return fmt.Errorf("gm: peer %d was declared dead", dst)
	}
	r, ok := h.tbl.Lookup(h.node, dst)
	if !ok {
		return fmt.Errorf("gm: no route %d->%d", h.node, dst)
	}
	hdr, err := r.EncodeHeader()
	if err != nil {
		return err
	}
	h.sendPort(dst, payload, hdr, packetTypeFor(r), 0, 0, outcome{onAcked: onAcked, onFailed: onFailed})
	return nil
}

// SendVia transmits payload to dst over an explicit wire route (used
// by the evaluation harness to pin the exact paths of Figures 7/8).
// GM reads the payload and the route once, when it segments the
// message into packets (each packet takes its own copy of the route),
// so the caller must not modify either until the send's outcome.
func (h *Host) SendVia(dst topology.NodeID, payload []byte, route []byte, typ packet.Type) {
	h.sendPort(dst, payload, route, typ, 0, 0, outcome{})
}

// sendPort segments and enqueues one message; o is settled as acked
// when GM has acknowledged the whole message (or when its tail leaves
// the NIC, with acks disabled), or as failed if the message is
// abandoned by the dead-peer verdict.
func (h *Host) sendPort(dst topology.NodeID, payload []byte, route []byte, typ packet.Type, srcPort, dstPort uint8, o outcome) {
	h.msgID++
	h.stats.MessagesSent++
	op := h.sendOps.Get()
	*op = sendOp{
		h: h, peer: dst, payload: payload, route: route, typ: typ,
		srcPort: srcPort, dstPort: dstPort, id: h.msgID, o: o,
	}
	// The user-level send overhead is paid once per gm_send call.
	h.eng.ScheduleArg(h.par.HostSendOverhead, segment, op)
}

// segment enqueues a message's packets once the send overhead is
// paid, segmenting the payload at the MTU. An empty message is one
// empty packet.
func segment(arg any) {
	p := arg.(*sendOp)
	op := *p
	h := op.h
	h.sendOps.Put(p)
	nfrags := (len(op.payload) + h.par.MTU - 1) / h.par.MTU
	if nfrags == 0 {
		nfrags = 1
	}
	for i := 0; i < nfrags; i++ {
		fr := op.payload[i*h.par.MTU : min((i+1)*h.par.MTU, len(op.payload))]
		pkt := packet.Get()
		pkt.SetRoute(op.route)
		pkt.Type = op.typ
		pkt.Payload = append(pkt.Payload, fr...)
		pkt.Src = int(h.node)
		pkt.Dst = int(op.peer)
		pkt.SrcPort = op.srcPort
		pkt.DstPort = op.dstPort
		pkt.MsgID = op.id
		pkt.FragIndex = i
		pkt.LastFrag = i == nfrags-1
		if h.GossipStamp != nil {
			pkt.Gossip = h.GossipStamp()
		}
		var o outcome
		if pkt.LastFrag {
			o = op.o
		}
		if h.par.DisableAcks {
			h.sendRaw(op.peer, pkt, o)
		} else {
			h.connTo(op.peer).enqueue(pkt, o)
		}
	}
}

// sendRaw puts a raw host's packet on the wire as it is: no
// retransmission will ever need an original, and the outcome rides on
// its completion record. Seqs stay consecutive per peer, so an
// ack-mode receiver accepts the stream in order.
func (h *Host) sendRaw(peer topology.NodeID, pkt *packet.Packet, o outcome) {
	pkt.Seq = h.rawSeq[peer]
	h.rawSeq[peer]++
	h.stats.PacketsSent++
	rec := h.sentRecs.Get()
	rec.h, rec.outcome = h, o
	h.m.SubmitSend(pkt, sentRaw, rec)
}

// sentRaw is the MCP's completion for a raw host's packet: no ack will
// come, so its tail leaving the NIC stands in for one.
func sentRaw(arg any, _ units.Time) {
	rec := arg.(*sentRec)
	o, h := rec.outcome, rec.h
	h.sentRecs.Put(rec)
	o.acked()
}

func (h *Host) connTo(peer topology.NodeID) *conn {
	if n := int(peer) + 1; n > len(h.conns) {
		h.conns = append(h.conns, make([]*conn, n-len(h.conns))...)
	}
	c := h.conns[peer]
	if c == nil {
		c = &conn{h: h, peer: peer}
		h.conns[peer] = c
	}
	return c
}

// deliver is the MCP's completion upcall. The wire packet (a
// transmit clone, a raw host's packet, or an ack) is consumed here:
// once the host state has absorbed it, it goes back to the pool.
func (h *Host) deliver(pkt *packet.Packet, _ units.Time) {
	src := topology.NodeID(pkt.Src)
	switch {
	case h.par.DisableAcks:
		// A raw host has no window for an ack to trim.
		if pkt.Type != packet.TypeAck {
			h.receiveRaw(src, pkt)
		}
	case pkt.Type == packet.TypeAck:
		// The ack's incarnation travels encoded in the payload (the
		// wire format the recovery protocol adds); the bookkeeping
		// field is the fallback for acks that predate any incarnation.
		inc := pkt.Incarnation
		if len(pkt.Payload) > 0 && pkt.Payload[0] == packet.EpochTag {
			if e, _, err := packet.ParseEpoch(pkt.Payload); err == nil {
				inc = e
			}
		}
		h.connTo(src).handleAck(pkt.Seq, inc)
	default:
		h.connTo(src).handleData(pkt)
	}
	packet.Put(pkt)
}

// receiveRaw delivers whatever reaches a raw host, reassembling
// naively: a fragment appends to its sender's in-progress message, and
// a last fragment completes it.
func (h *Host) receiveRaw(src topology.NodeID, pkt *packet.Packet) {
	asm := appendFrag(h.rawAsm[src], pkt.Payload)
	if !pkt.LastFrag {
		if h.rawAsm == nil {
			h.rawAsm = make(map[topology.NodeID][]byte)
		}
		h.rawAsm[src] = asm
		return
	}
	delete(h.rawAsm, src)
	h.complete(src, pkt, asm)
}

// complete hands the message msg from src, whose last fragment is pkt,
// to the application after the host-side receive overhead.
func (h *Host) complete(src topology.NodeID, pkt *packet.Packet, msg []byte) {
	h.stats.MessagesReceived++
	op := h.recvOps.Get()
	*op = recvOp{h: h, peer: src, srcPort: pkt.SrcPort, dstPort: pkt.DstPort, msg: msg}
	h.eng.ScheduleArg(h.par.HostRecvOverhead, message, op)
}

// message hands a reassembled message to its port, or to the legacy
// OnMessage callback when nobody opened that port. The port returns
// the receive buffer once OnReceive has seen it; here it returns as
// soon as OnMessage does.
func message(arg any) {
	p := arg.(*recvOp)
	op := *p
	h := op.h
	h.recvOps.Put(p)
	if h.deliverToPort(op.peer, op.srcPort, op.dstPort, op.msg, h.eng.Now()) {
		return
	}
	if h.OnMessage != nil {
		h.OnMessage(op.peer, op.msg, h.eng.Now())
	}
	putRecvBuf(op.msg)
}

// sendAck emits a zero-payload acknowledgement carrying the
// cumulative next-expected sequence number. Only ack-mode conns call
// it.
func (h *Host) sendAck(peer topology.NodeID, nextExpected uint32) {
	if h.tbl == nil {
		return
	}
	r, ok := h.tbl.Lookup(h.node, peer)
	if !ok {
		return
	}
	hdr, err := r.EncodeHeader()
	if err != nil {
		return
	}
	ack := packet.Get()
	ack.SetRoute(hdr)
	ack.Type = packet.TypeAck
	ack.Src = int(h.node)
	ack.Dst = int(peer)
	ack.Seq = nextExpected
	// Acks for an incarnated stream carry the incarnation so the
	// sender can discard acknowledgements left over from the previous
	// incarnation. Epoch-0 acks stay byte-identical to the
	// pre-recovery wire format.
	if inc := h.connTo(peer).peerIncarnation; inc > 0 {
		ack.Incarnation = inc
		ack.Payload = packet.AppendEpoch(ack.Payload, inc)
	}
	h.stats.AcksSent++
	h.m.SubmitSend(ack, nil, nil)
}
