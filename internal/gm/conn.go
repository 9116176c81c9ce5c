package gm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// conn holds the reliability state between this host and one peer:
// go-back-N sending (window, cumulative acks, timeout retransmission)
// and in-order receiving with message reassembly. GM provides exactly
// this: reliable and ordered packet delivery in the presence of
// drops, which the buffer-pool experiments rely on.
type conn struct {
	h    *Host
	peer topology.NodeID

	// Sender state. Sequence numbers count packets, not bytes.
	nextSeq   uint32 // next sequence number to assign
	ackedTo   uint32 // everything below this is acknowledged
	inflight  []*packet.Packet
	backlog   sim.FIFO[*packet.Packet] // waiting for window space
	timer     sim.Event
	submitted map[uint32]bool   // seqs handed to the MCP and not yet re-sendable
	acked     map[uint32]func() // per-seq acknowledgement callbacks (send tokens)
	failed    map[uint32]func() // per-seq failure callbacks (dead-peer verdict)

	// Recovery state (Params.BackoffFactor / DeadPeerTimeouts).
	curTimeout units.Time // current retransmit timeout (backed off)
	strikes    int        // consecutive timeouts without ack progress
	// dead marks the dead-peer verdict. It is no longer permanent: the
	// recovery protocol's epoch-versioned table install (InstallTable)
	// can resurrect the conn, restarting the stream at sequence zero
	// under a new incarnation so that leftovers of the old stream are
	// recognisable and cannot desynchronise the go-back-N window.
	dead bool
	// incarnation is the epoch of the last resurrection (zero for the
	// original stream). Acks carrying an older epoch are stale.
	incarnation uint32

	// Receiver state.
	expected uint32
	assembly []byte // fragments of the in-progress message
	// peerIncarnation mirrors the peer's sender incarnation: adopted
	// when a sequence-zero packet arrives with a newer epoch, after
	// which packets of older incarnations are dropped as stale.
	peerIncarnation uint32
	// Ack coalescing (Params.AckDelay).
	pendingAcks int
	ackTimer    sim.Event
}

func newConn(h *Host, peer topology.NodeID) *conn {
	return &conn{
		h: h, peer: peer,
		submitted: make(map[uint32]bool),
		acked:     make(map[uint32]func()),
		failed:    make(map[uint32]func()),
	}
}

// enqueue assigns a sequence number and transmits when the window
// allows. onAcked (optional) fires when this packet is acknowledged;
// onFailed (optional) fires instead if the dead-peer verdict abandons
// it. Enqueueing to an already-dead conn fails at once (from a fresh
// event, so the caller's stack has unwound).
func (c *conn) enqueue(pkt *packet.Packet, onAcked, onFailed func()) {
	if c.dead {
		if pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
		if onFailed != nil {
			c.h.eng.Schedule(0, onFailed)
		}
		// The fragment never entered backlog or inflight; nothing else
		// references it.
		packet.Put(pkt)
		return
	}
	pkt.Seq = c.nextSeq
	pkt.Incarnation = c.incarnation
	c.nextSeq++
	if onAcked != nil {
		c.acked[pkt.Seq] = onAcked
	}
	if onFailed != nil {
		c.failed[pkt.Seq] = onFailed
	}
	c.backlog.Push(pkt)
	c.pump()
}

// pump moves backlog packets into the window.
func (c *conn) pump() {
	for c.backlog.Len() > 0 && (len(c.inflight) < c.h.par.Window || c.h.par.DisableAcks) {
		pkt := c.backlog.Pop()
		if !c.h.par.DisableAcks {
			c.inflight = append(c.inflight, pkt)
			c.transmit(pkt)
			continue
		}
		// Fire-and-forget mode: no retransmission will ever need the
		// original, and transmit clones the wire copy synchronously, so
		// the original goes straight back to the pool. Keeping it
		// (pre-fix behaviour) leaked one pool packet per send — in a
		// long open-loop run, unbounded growth.
		c.transmit(pkt)
		packet.Put(pkt)
	}
}

// transmit hands one packet to the MCP. The MCP keeps its own queue,
// so this never blocks.
func (c *conn) transmit(pkt *packet.Packet) {
	c.h.stats.PacketsSent++
	c.submitted[pkt.Seq] = true
	// The MCP consumes the route bytes in flight, so each (re)send
	// works on a fresh copy; the original stays pristine for
	// retransmission. The copy comes from (and returns to) the packet
	// pool: the receiving host's deliver path recycles it.
	wire := pkt.ClonePooled()
	rec := c.h.sentRecs.Get()
	rec.c, rec.seq = c, pkt.Seq
	c.h.m.SubmitSend(wire, sent, rec)
	c.armTimer()
}

// sent is the MCP's completion for a transmitted packet: its tail has
// left the NIC, so the packet may be re-sent.
func sent(arg any, _ units.Time) {
	rec := arg.(*sentRec)
	c, seq := rec.c, rec.seq
	c.h.sentRecs.Put(rec)
	delete(c.submitted, seq)
	if c.h.par.DisableAcks {
		// No ack will come; the tail leaving stands in for it.
		c.fireAcked(seq)
	}
}

// fireAcked runs and clears the acknowledgement callback of one seq.
func (c *conn) fireAcked(seq uint32) {
	delete(c.failed, seq)
	if cb, ok := c.acked[seq]; ok {
		delete(c.acked, seq)
		cb()
	}
}

func (c *conn) armTimer() {
	if c.h.par.DisableAcks || c.timer.Valid() || c.dead {
		return
	}
	if c.curTimeout <= 0 {
		c.curTimeout = c.h.par.AckTimeout
	}
	c.timer = c.h.eng.ScheduleArg(c.curTimeout, ackTimeout, c)
}

func (c *conn) disarmTimer() {
	if c.timer.Valid() {
		c.h.eng.Cancel(c.timer)
		c.timer = sim.NoEvent
	}
}

// ackTimeout is the retransmit timer of the conn it is scheduled with
// (ScheduleArg, so arming it allocates nothing): it retransmits every
// unacknowledged packet (go-back-N). Each barren timeout is a strike
// against the peer and backs the timeout off; enough strikes
// (Params.DeadPeerTimeouts) and the peer is declared dead, which is
// what bounds the retransmission process — and hence the simulation —
// under a permanent fault.
func ackTimeout(arg any) {
	c := arg.(*conn)
	c.timer = sim.NoEvent
	if len(c.inflight) == 0 {
		return
	}
	c.strikes++
	if n := c.h.par.DeadPeerTimeouts; n > 0 && c.strikes >= n {
		c.declareDead()
		return
	}
	if f := c.h.par.BackoffFactor; f > 1 {
		c.h.stats.BackoffExpansions++
		c.curTimeout = units.Time(float64(c.curTimeout) * f)
		if lim := c.h.par.MaxAckTimeout; lim > 0 && c.curTimeout > lim {
			c.curTimeout = lim
		}
	}
	// Head-of-line probe: resend only the first unacknowledged packet.
	// Re-bursting the whole window on timeout can phase-lock against a
	// one-buffer receiver — every burst arrives while the buffer holds
	// the previous burst's survivor, so the head is never the packet
	// that lands, the receiver keeps re-acking the same position, and
	// the exchange livelocks (the simulation replays the lock exactly,
	// having no physical jitter to break it). A lone probe claims the
	// buffer, advances the window, and the rest of the window resumes
	// on the ack (handleAck).
	for _, pkt := range c.inflight {
		if c.submitted[pkt.Seq] {
			// Still sitting in the NIC's send queue; re-sending would
			// duplicate it.
			break
		}
		c.h.stats.Retransmits++
		c.h.emit(trace.Retransmit, pkt.ID, fmt.Sprintf("seq=%d", pkt.Seq))
		c.transmit(pkt)
		break
	}
	c.armTimer()
}

// declareDead issues the dead-peer verdict: every pending message is
// reported failed (in send order), all timers stop, and the conn
// rejects future sends. The per-host OnPeerDead hook lets the layer
// above (the fault-campaign controller, or a future remapper trigger)
// react.
func (c *conn) declareDead() {
	c.dead = true
	c.disarmTimer()
	c.h.stats.PeersDeclaredDead++
	c.h.emit(trace.PeerDead, 0, fmt.Sprintf("peer=%d strikes=%d", c.peer, c.strikes))
	// Count abandoned messages: one per last-fragment still unacked
	// (its ack is what would have completed the message).
	for _, pkt := range c.inflight {
		if pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	for i := 0; i < c.backlog.Len(); i++ {
		if c.backlog.At(i).LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	// Fire failure callbacks in ascending-seq (send) order so the
	// outcome order is deterministic.
	pending := len(c.failed)
	for seq := c.ackedTo; seq < c.nextSeq && pending > 0; seq++ {
		if cb, ok := c.failed[seq]; ok {
			delete(c.failed, seq)
			delete(c.acked, seq)
			pending--
			cb()
		}
	}
	// The abandoned originals have no live referent left (only their
	// clones were ever injected): recycle them.
	for _, pkt := range c.inflight {
		packet.Put(pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		packet.Put(c.backlog.At(i))
	}
	c.inflight = nil
	c.backlog.Clear()
	if c.h.OnPeerDead != nil {
		c.h.OnPeerDead(c.peer, c.h.eng.Now())
	}
}

// resurrect lifts the dead-peer verdict after an epoch-versioned
// table install restored a route to the peer. The go-back-N stream
// restarts from sequence zero under the new incarnation; the receiver
// adopts it when the first sequence-zero packet arrives (handleData).
// declareDead already drained inflight/backlog and reported every
// pending outcome, so only the sequence state needs resetting. Note
// the submitted map is cleared even though a wire clone of the old
// incarnation may still sit in the NIC's send queue with a send
// completion (sent) that deletes a (now reused) seq entry — the
// worst case is one premature retransmission, which the receiver's
// duplicate handling absorbs.
func (c *conn) resurrect(epoch uint32) {
	c.dead = false
	c.incarnation = epoch
	c.nextSeq = 0
	c.ackedTo = 0
	c.strikes = 0
	c.curTimeout = 0
	clear(c.submitted)
	clear(c.acked)
	clear(c.failed)
	c.h.stats.ConnsResurrected++
	c.h.emit(trace.PeerResurrected, 0, fmt.Sprintf("peer=%d epoch=%d", c.peer, epoch))
}

// restampRoutes rewrites the stamped route bytes (and epoch) of every
// pending packet after a table install, so retransmissions follow the
// new table instead of probing a dead path forever.
func (c *conn) restampRoutes(hdr []byte, typ packet.Type, epoch uint32) {
	restamp := func(pkt *packet.Packet) {
		pkt.Route = append(pkt.Route[:0], hdr...)
		pkt.Type = typ
		pkt.Epoch = epoch
		c.h.stats.PacketsRerouted++
	}
	for _, pkt := range c.inflight {
		restamp(pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		restamp(c.backlog.At(i))
	}
}

// handleAck processes a cumulative acknowledgement: everything below
// nextExpected has arrived. epoch is the incarnation the ack was
// issued under; acknowledgements from before a resurrection must not
// be applied to the restarted stream.
func (c *conn) handleAck(nextExpected uint32, epoch uint32) {
	if c.dead {
		return // verdict issued; outcomes already reported
	}
	if epoch < c.incarnation {
		c.h.stats.EpochStaleDrops++
		return // ack from a previous incarnation of this stream
	}
	if nextExpected <= c.ackedTo {
		return // stale
	}
	old := c.ackedTo
	c.ackedTo = nextExpected
	// Acknowledgement progress clears the strike count and resets the
	// backed-off timeout. Progress after a timeout means the receiver
	// dropped the rest of the window: resume streaming it below.
	recovering := c.strikes > 0
	c.strikes = 0
	c.curTimeout = c.h.par.AckTimeout
	keep := c.inflight[:0]
	for _, pkt := range c.inflight {
		if pkt.Seq >= nextExpected {
			keep = append(keep, pkt)
		} else {
			// Acknowledged: the original (never injected itself — every
			// transmission was a clone) has no other referent left.
			packet.Put(pkt)
		}
	}
	c.inflight = keep
	clear(c.inflight[len(c.inflight):cap(c.inflight)])
	for seq := old; seq < nextExpected; seq++ {
		c.fireAcked(seq)
	}
	c.disarmTimer()
	if recovering {
		// Go-back-N resume: re-stream the unacknowledged remainder of
		// the window from the position the receiver just confirmed.
		for _, pkt := range c.inflight {
			if c.submitted[pkt.Seq] {
				continue
			}
			c.h.stats.Retransmits++
			c.h.emit(trace.Retransmit, pkt.ID, fmt.Sprintf("seq=%d", pkt.Seq))
			c.transmit(pkt)
		}
	}
	if len(c.inflight) > 0 {
		c.armTimer()
	}
	c.pump()
}

// handleData processes an arriving data packet.
func (c *conn) handleData(pkt *packet.Packet, t units.Time) {
	if c.h.par.DisableAcks {
		// Raw mode: deliver whatever arrives, reassembling naively.
		c.deliverFrag(pkt, t)
		return
	}
	switch {
	case pkt.Incarnation > c.peerIncarnation:
		// The peer's sender restarted its stream under a newer
		// incarnation: adopt it. Any half-assembled message of the old
		// incarnation is abandoned (its sender already reported it
		// failed at the dead verdict). The session number — not the
		// table epoch — is what distinguishes a new stream: epochs
		// advance under live connections whose in-flight packets get
		// re-stamped, and treating those as new streams would reset
		// expected and re-deliver.
		c.peerIncarnation = pkt.Incarnation
		c.expected = 0
		c.assembly = nil
		c.pendingAcks = 0
		if c.ackTimer.Valid() {
			c.h.eng.Cancel(c.ackTimer)
			c.ackTimer = sim.NoEvent
		}
	case pkt.Incarnation < c.peerIncarnation:
		// A leftover of the previous incarnation (stale route SRAM or
		// a clone that sat in a queue across the resurrection).
		c.h.stats.EpochStaleDrops++
		return
	}
	switch {
	case pkt.Seq == c.expected:
		c.expected++
		c.deliverFrag(pkt, t)
		c.scheduleAck()
	case pkt.Seq < c.expected:
		// Duplicate (a retransmission raced the ack): re-ack at once.
		c.h.stats.DuplicateDrops++
		c.flushAck()
	default:
		// Gap: an earlier packet was flushed by a buffer pool.
		// Go-back-N discards and re-acks the last good position
		// immediately, so the sender rewinds without a full timeout.
		c.h.stats.OutOfOrderDrops++
		c.flushAck()
	}
}

// scheduleAck acknowledges the in-order progress: immediately by
// default, or coalesced under Params.AckDelay (one cumulative ack per
// AckEvery packets or per delay window, whichever first).
func (c *conn) scheduleAck() {
	if c.h.par.AckDelay <= 0 {
		c.h.sendAck(c.peer, c.expected)
		return
	}
	c.pendingAcks++
	every := c.h.par.AckEvery
	if every <= 0 {
		every = 4
	}
	if c.pendingAcks >= every {
		c.flushAck()
		return
	}
	if !c.ackTimer.Valid() {
		c.ackTimer = c.h.eng.ScheduleArg(c.h.par.AckDelay, ackDelayed, c)
	}
}

// ackDelayed emits the coalesced acknowledgement of the conn it is
// scheduled with when the delay window closes.
func ackDelayed(arg any) {
	c := arg.(*conn)
	c.ackTimer = sim.NoEvent
	c.flushAck()
}

// flushAck emits the cumulative acknowledgement now.
func (c *conn) flushAck() {
	if c.ackTimer.Valid() {
		c.h.eng.Cancel(c.ackTimer)
		c.ackTimer = sim.NoEvent
	}
	c.pendingAcks = 0
	c.h.sendAck(c.peer, c.expected)
}

// deliverFrag appends a fragment and completes the message on its
// last fragment, dispatching to the destination port (or the legacy
// OnMessage callback when nobody opened that port).
func (c *conn) deliverFrag(pkt *packet.Packet, t units.Time) {
	c.assembly = append(c.assembly, pkt.Payload...)
	if !pkt.LastFrag {
		return
	}
	msg := c.assembly
	c.assembly = nil
	c.h.stats.MessagesReceived++
	op := c.h.recvOps.Get()
	*op = recvOp{c: c, srcPort: pkt.SrcPort, dstPort: pkt.DstPort, msg: msg}
	// The application sees the message after the host-side receive
	// overhead.
	c.h.eng.ScheduleArg(c.h.par.HostRecvOverhead, message, op)
}

// message hands a reassembled message to its port, or to the legacy
// OnMessage callback when nobody opened that port.
func message(arg any) {
	p := arg.(*recvOp)
	op := *p
	h := op.c.h
	h.recvOps.Put(p)
	if h.deliverToPort(op.c.peer, op.srcPort, op.dstPort, op.msg, h.eng.Now()) {
		return
	}
	if h.OnMessage != nil {
		h.OnMessage(op.c.peer, op.msg, h.eng.Now())
	}
}
