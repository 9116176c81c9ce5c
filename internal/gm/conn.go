package gm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// conn holds the state between an ack-mode host and one peer. GM
// gives every host pair reliable, ordered delivery: go-back-N sending
// (window, cumulative acks, timeout retransmission) and in-order
// receiving with message reassembly, which the buffer-pool
// experiments rely on. A raw host (Params.DisableAcks) keeps no conn:
// its per-peer state is a sequence counter and, while a multi-fragment
// message is arriving, its assembly (Host.rawSeq, Host.rawAsm).
type conn struct {
	h    *Host
	peer topology.NodeID

	// Sender state. Sequence numbers count packets, not bytes.
	nextSeq uint32 // next sequence number to assign
	// incarnation is the epoch of the last resurrection (zero for the
	// original stream). Acks carrying an older epoch are stale.
	incarnation uint32

	// Receiver state.
	expected uint32
	// peerIncarnation mirrors the peer's sender incarnation: adopted
	// when a sequence-zero packet arrives with a newer epoch, after
	// which packets of older incarnations are dropped as stale.
	peerIncarnation uint32
	assembly        []byte // fragments of the in-progress message (a receive buffer)

	// The send window holds consecutive seqs, so a seq's entry is
	// found by subtraction (entry).
	inflight []winEntry
	backlog  sim.FIFO[winEntry] // waiting for window space

	// Recovery state (Params.BackoffFactor / DeadPeerTimeouts).
	curTimeout units.Time // current retransmit timeout (backed off)
	timer      sim.Event

	ackedTo uint32 // everything below this is acknowledged
	strikes int32  // consecutive timeouts without ack progress
	// dead marks the dead-peer verdict. It is no longer permanent: the
	// recovery protocol's epoch-versioned table install (InstallTable)
	// can resurrect the conn, restarting the stream at sequence zero
	// under a new incarnation so that leftovers of the old stream are
	// recognisable and cannot desynchronise the go-back-N window.
	dead bool
}

// outcome is what a message's last fragment carries to its
// completion: the port whose send token comes back on either outcome,
// and the caller's callbacks. Exactly one of acked and failed runs.
type outcome struct {
	port              *Port
	onAcked, onFailed func()
}

// acked returns the send token, then runs the caller's callback.
func (o *outcome) acked() {
	if o.port != nil {
		o.port.sendTokens++
	}
	if o.onAcked != nil {
		o.onAcked()
	}
}

// failed returns the send token, then runs the caller's callback.
func (o *outcome) failed() {
	if o.port != nil {
		o.port.sendTokens++
	}
	if o.onFailed != nil {
		o.onFailed()
	}
}

// winEntry is one packet of an ack-mode send stream, in the backlog
// or the window: the original (kept pristine for retransmission, never
// injected itself) and its outcome (zero on all but a message's last
// fragment).
type winEntry struct {
	pkt *packet.Packet
	outcome
	// submitted marks a transmission still in the MCP's send queue:
	// its tail has not left the NIC, so re-sending would duplicate it.
	submitted bool
}

// entry returns the window entry of seq, or nil when seq is not in
// the window.
func (c *conn) entry(seq uint32) *winEntry {
	if len(c.inflight) == 0 {
		return nil
	}
	if i := seq - c.inflight[0].pkt.Seq; i < uint32(len(c.inflight)) {
		return &c.inflight[i]
	}
	return nil
}

// enqueue assigns a sequence number and transmits when the window
// allows. o is settled when this packet is acknowledged or the
// dead-peer verdict abandons it. Enqueueing to an already-dead conn
// fails at once (from a fresh event, so the caller's stack has
// unwound).
func (c *conn) enqueue(pkt *packet.Packet, o outcome) {
	if c.dead {
		if pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
		if o.port != nil || o.onFailed != nil {
			// A copy, so that only this rare path moves it to the heap.
			f := o
			c.h.eng.Schedule(0, f.failed)
		}
		// The fragment never entered backlog or inflight; nothing else
		// references it.
		packet.Put(pkt)
		return
	}
	pkt.Seq = c.nextSeq
	pkt.Incarnation = c.incarnation
	c.nextSeq++
	c.backlog.Push(winEntry{pkt: pkt, outcome: o})
	c.pump()
}

// pump moves backlog packets into the window.
func (c *conn) pump() {
	for c.backlog.Len() > 0 && len(c.inflight) < c.h.par.Window {
		c.inflight = append(c.inflight, c.backlog.Pop())
		c.transmit(&c.inflight[len(c.inflight)-1])
	}
}

// transmit hands one window entry to the MCP. The MCP keeps its own
// queue, so this never blocks.
func (c *conn) transmit(e *winEntry) {
	c.h.stats.PacketsSent++
	rec := c.h.sentRecs.Get()
	rec.h, rec.peer, rec.seq = c.h, c.peer, e.pkt.Seq
	e.submitted = true
	// The MCP consumes the route bytes in flight, so each (re)send
	// works on a fresh copy; the original stays pristine for
	// retransmission. The copy comes from (and returns to) the packet
	// pool: the receiving host's deliver path recycles it.
	wire := e.pkt.ClonePooled()
	c.h.m.SubmitSend(wire, sent, rec)
	c.armTimer()
}

// sent is the MCP's completion for a transmitted packet: its tail has
// left the NIC, so the packet may be re-sent. It matches the window
// entry by seq alone (see resurrect).
func sent(arg any, _ units.Time) {
	rec := arg.(*sentRec)
	h, peer, seq := rec.h, rec.peer, rec.seq
	h.sentRecs.Put(rec)
	if e := h.conns[peer].entry(seq); e != nil {
		e.submitted = false
	}
}

func (c *conn) armTimer() {
	if c.timer.Valid() || c.dead {
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
	if n := c.h.par.DeadPeerTimeouts; n > 0 && int(c.strikes) >= n {
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
	// on the ack (handleAck). A head still sitting in the NIC's send
	// queue is not re-sent: that would duplicate it.
	if e := &c.inflight[0]; !e.submitted {
		c.retransmit(e)
	}
	c.armTimer()
}

// retransmit re-sends one window entry.
func (c *conn) retransmit(e *winEntry) {
	c.h.stats.Retransmits++
	if c.h.tracer != nil {
		c.h.emit(trace.Retransmit, e.pkt.ID, fmt.Sprintf("seq=%d", e.pkt.Seq))
	}
	c.transmit(e)
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
	if c.h.tracer != nil {
		c.h.emit(trace.PeerDead, 0, fmt.Sprintf("peer=%d strikes=%d", c.peer, c.strikes))
	}
	// Count abandoned messages: one per last-fragment still unacked
	// (its ack is what would have completed the message).
	for i := range c.inflight {
		if c.inflight[i].pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	for i := 0; i < c.backlog.Len(); i++ {
		if c.backlog.At(i).pkt.LastFrag {
			c.h.stats.MessagesFailed++
		}
	}
	// Settle the outcomes in ascending-seq (send) order, the window
	// before the backlog, so the outcome order is deterministic.
	for i := range c.inflight {
		c.inflight[i].failed()
	}
	for i := 0; i < c.backlog.Len(); i++ {
		e := c.backlog.At(i)
		e.failed()
	}
	// The abandoned originals have no live referent left (only their
	// clones were ever injected): recycle them.
	for i := range c.inflight {
		packet.Put(c.inflight[i].pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		packet.Put(c.backlog.At(i).pkt)
	}
	clear(c.inflight)
	c.inflight = c.inflight[:0]
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
// a wire clone of the old incarnation may still sit in the NIC's send
// queue: its send completion (sent) matches the window by seq alone,
// so it clears the submitted mark of the new stream's packet with the
// same seq — the worst case is one premature retransmission, which
// the receiver's duplicate handling absorbs.
func (c *conn) resurrect(epoch uint32) {
	c.dead = false
	c.incarnation = epoch
	c.nextSeq = 0
	c.ackedTo = 0
	c.strikes = 0
	c.curTimeout = 0
	c.h.stats.ConnsResurrected++
	if c.h.tracer != nil {
		c.h.emit(trace.PeerResurrected, 0, fmt.Sprintf("peer=%d epoch=%d", c.peer, epoch))
	}
}

// restampRoutes rewrites the stamped route bytes of every pending
// packet after a table install, so retransmissions follow the new
// table instead of probing a dead path forever.
func (c *conn) restampRoutes(hdr []byte, typ packet.Type) {
	restamp := func(pkt *packet.Packet) {
		pkt.SetRoute(hdr)
		pkt.Type = typ
		c.h.stats.PacketsRerouted++
	}
	for i := range c.inflight {
		restamp(c.inflight[i].pkt)
	}
	for i := 0; i < c.backlog.Len(); i++ {
		restamp(c.backlog.At(i).pkt)
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
	c.ackedTo = nextExpected
	// Acknowledgement progress clears the strike count and resets the
	// backed-off timeout. Progress after a timeout means the receiver
	// dropped the rest of the window: resume streaming it below.
	recovering := c.strikes > 0
	c.strikes = 0
	c.curTimeout = c.h.par.AckTimeout
	// Trim the acknowledged prefix of the window, then settle its
	// outcomes in ascending seq.
	settle := c.h.settle
	c.h.settle = nil // a nested handleAck from a callback gets its own
	k := 0
	for ; k < len(c.inflight) && c.inflight[k].pkt.Seq < nextExpected; k++ {
		settle = append(settle, c.inflight[k].outcome)
		// Acknowledged: the original (never injected itself — every
		// transmission was a clone) has no other referent left.
		packet.Put(c.inflight[k].pkt)
	}
	n := copy(c.inflight, c.inflight[k:])
	clear(c.inflight[n:])
	c.inflight = c.inflight[:n]
	for i := range settle {
		settle[i].acked()
	}
	clear(settle)
	c.h.settle = settle[:0]
	c.disarmTimer()
	if recovering {
		// Go-back-N resume: re-stream the unacknowledged remainder of
		// the window from the position the receiver just confirmed.
		for i := range c.inflight {
			if e := &c.inflight[i]; !e.submitted {
				c.retransmit(e)
			}
		}
	}
	if len(c.inflight) > 0 {
		c.armTimer()
	}
	c.pump()
}

// handleData processes an arriving data packet.
func (c *conn) handleData(pkt *packet.Packet) {
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
		putRecvBuf(c.assembly)
		c.assembly = nil
	case pkt.Incarnation < c.peerIncarnation:
		// A leftover of the previous incarnation (stale route SRAM or
		// a clone that sat in a queue across the resurrection).
		c.h.stats.EpochStaleDrops++
		return
	}
	switch {
	case pkt.Seq == c.expected:
		c.expected++
		c.deliverFrag(pkt)
	case pkt.Seq < c.expected:
		// Duplicate (a retransmission raced the ack): re-ack.
		c.h.stats.DuplicateDrops++
	default:
		// Gap: an earlier packet was flushed by a buffer pool.
		// Go-back-N discards and re-acks the last good position, so
		// the sender rewinds without a full timeout.
		c.h.stats.OutOfOrderDrops++
	}
	c.h.sendAck(c.peer, c.expected)
}

// deliverFrag appends a fragment to the message's receive buffer and
// completes the message on its last fragment.
func (c *conn) deliverFrag(pkt *packet.Packet) {
	c.assembly = appendFrag(c.assembly, pkt.Payload)
	if !pkt.LastFrag {
		return
	}
	msg := c.assembly
	c.assembly = nil
	c.h.complete(c.peer, pkt, msg)
}
