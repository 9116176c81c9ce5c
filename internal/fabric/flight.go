package fabric

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// flight states.
const (
	flightInjecting = iota
	flightInFlight
	flightAtEndpoint // header arrived, waiting for Accept/Drop
	flightDraining   // accepted or dropped, body streaming
	flightDone
)

// Flight is one packet traversing one up*/down* segment of the
// network: from a source NIC to whichever host port the route bytes
// deliver it to.
//
// Body timing model: the packet is a rigid snake behind its header.
// While the header waits for an output channel, the body stalls with
// it (Stop&Go flow control, no virtual channels). Channels stay held
// until the tail has fully drained into the destination NIC; this is
// slightly conservative (a real tail frees upstream channels a few
// hundred nanoseconds earlier as it passes) but preserves the blocking
// and contention-relief behaviour the experiments measure.
//
// Flights are pooled per Network: a finished flight goes back to the
// free-list and its next Inject reuses the object (and its slices and
// closures), so steady-state traversal performs no allocation. The
// hop advancement runs through a fixed set of long-lived closures
// (fnCross -> fnGranted -> fnArrive, looping via atNode) driven by the
// hop* "program counter" fields, instead of a fresh closure chain per
// hop. Fields are reset when a pooled flight is reused — not when it
// finishes — so accessors like StallTime stay readable after Done.
type Flight struct {
	id      uint64
	net     *Network
	pkt     *packet.Packet
	src     topology.NodeID
	opts    InjectOpts
	wireLen int

	held []*channel
	// heldProp[i] is the flight's accumulated unstalled propagation
	// delay at the moment held[i] carried the header — used by
	// progressive release to place the tail's passing time.
	heldProp  []units.Time
	state     int
	waitStart units.Time
	stall     units.Time // total time blocked on channels / buffers
	prop      units.Time // unstalled propagation delay accumulated

	headerOutAt units.Time // header left source NIC
	headerInAt  units.Time // header reached destination endpoint
	completeAt  units.Time
	dstHost     topology.NodeID

	// Hop-advancement state consumed by the persistent closures.
	hopLink  *topology.Link
	hopCh    *channel
	hopFromA bool
	hopLane  int
	// hopGrantFresh is true when hopCh was granted through its wait
	// queue (and the grant time must be stamped), false when the
	// flight revisited a channel it already held.
	hopGrantFresh bool
	dropped       bool
	tailOutAt     units.Time

	// Persistent closures, allocated once per Flight object and reused
	// across hops and pooled reincarnations.
	fnInjected func()    // source channel granted
	fnCross    func()    // fall-through paid: contend for the output channel
	fnGranted  func()    // output channel granted: pay the wire latency
	fnArrive   func()    // header reaches the next node
	fnTailOut  func()    // tail leaves the source NIC
	fnDone     func()    // tail fully at the endpoint
	fnRelease  func(any) // progressive release of one held channel
}

// newFlight builds a Flight bound to its network with its closure set.
func newFlight(n *Network) *Flight {
	f := &Flight{net: n}
	f.fnInjected = f.injected
	f.fnCross = f.cross
	f.fnGranted = f.granted
	f.fnArrive = f.arrive
	f.fnTailOut = f.tailOut
	f.fnDone = f.finish
	f.fnRelease = func(a any) { a.(*channel).release(n.eng, f) }
	return f
}

// reset clears the mutable state for reuse from the pool, keeping the
// network binding, the slices' capacity and the closures.
func (f *Flight) reset() {
	f.id = 0
	f.pkt = nil
	f.src = 0
	f.opts = InjectOpts{}
	f.wireLen = 0
	f.held = f.held[:0]
	f.heldProp = f.heldProp[:0]
	f.state = flightInjecting
	f.waitStart = 0
	f.stall = 0
	f.prop = 0
	f.headerOutAt = 0
	f.headerInAt = 0
	f.completeAt = 0
	f.dstHost = 0
	f.hopLink = nil
	f.hopCh = nil
	f.hopFromA = false
	f.hopLane = 0
	f.hopGrantFresh = false
	f.dropped = false
	f.tailOutAt = 0
}

// ID returns the unique flight id.
func (f *Flight) ID() uint64 { return f.id }

// Packet returns the packet being carried.
func (f *Flight) Packet() *packet.Packet { return f.pkt }

// Source returns the injecting host.
func (f *Flight) Source() topology.NodeID { return f.src }

// CompletionTime returns when the tail fully arrives (valid after
// Accept).
func (f *Flight) CompletionTime() units.Time { return f.completeAt }

// StallTime returns the total time the flight spent blocked.
func (f *Flight) StallTime() units.Time { return f.stall }

// Done reports whether the flight has fully drained (delivered or
// dropped).
func (f *Flight) Done() bool { return f.state == flightDone }

// acquireChannel requests a channel for the flight, tolerating routes
// that revisit a channel the flight already holds (e.g. a mapper scout
// bouncing back and forth over one cable): a real packet short enough
// to fit in the intervening pipeline re-uses the channel its own tail
// has already vacated, so the revisit proceeds without re-queueing.
func (f *Flight) acquireChannel(c *channel, fn func()) {
	for _, held := range f.held {
		if held == c {
			f.hopGrantFresh = false
			fn()
			return
		}
	}
	f.hopGrantFresh = true
	c.acquire(f, fn)
}

// injected runs when the source host's channel is granted: the header
// leaves the NIC.
func (f *Flight) injected() {
	n := f.net
	now := n.eng.Now()
	f.hopCh.lastGrant = now
	f.stall += now - f.waitStart
	f.headerOutAt = now
	n.emit(trace.HeaderOut, f.src, f.pkt.ID, "")
	if f.opts.OnHeaderOut != nil {
		f.opts.OnHeaderOut(now)
	}
	n.eng.Schedule(n.par.WireLatency, f.fnArrive)
}

// cross runs after the switch fall-through: contend for the selected
// output channel on the flight's current lane.
func (f *Flight) cross() {
	n := f.net
	f.waitStart = n.eng.Now()
	f.hopCh = n.chanOf(f.hopLink, f.hopFromA, f.hopLane)
	f.acquireChannel(f.hopCh, f.fnGranted)
}

// granted runs when the contended output channel is granted (or
// revisited — a channel the flight already holds is not re-granted,
// so its lastGrant stamp is left alone then).
func (f *Flight) granted() {
	n := f.net
	now := n.eng.Now()
	if f.hopGrantFresh {
		f.hopCh.lastGrant = now
	}
	waited := now - f.waitStart
	f.stall += waited
	f.hopCh.waited += waited
	n.eng.Schedule(n.par.WireLatency, f.fnArrive)
}

// arrive runs when the header reaches the far end of the current hop.
func (f *Flight) arrive() {
	f.atNode(f.hopLink.NodeAt(!f.hopFromA), f.hopLink)
}

// atNode handles the header reaching a node's input.
func (f *Flight) atNode(node topology.NodeID, via *topology.Link) {
	n := f.net
	info := n.nodes[node]
	if info.host {
		f.state = flightAtEndpoint
		f.headerInAt = n.eng.Now()
		f.waitStart = f.headerInAt
		f.dstHost = node
		ep := n.eps[node]
		if ep == nil {
			panic(fmt.Sprintf("fabric: no endpoint attached at host %d", node))
		}
		n.emit(trace.HeaderArrive, node, f.pkt.ID, "")
		ep.HeaderArrived(f)
		return
	}
	// At a switch: first consume any [VCTag][lane] pairs — the VC
	// allocator moving the packet onto the lane its route selected
	// for the hops that follow (the last pair wins) — then consume
	// the route byte and select the output port.
	for f.pkt.AtVCBoundary() {
		f.pkt.ConsumeRouteByte()
		lane := int(f.pkt.ConsumeRouteByte())
		if lane >= n.maxLanes {
			// The route selects a lane this fabric does not carry:
			// the switch cannot follow it and discards the packet.
			n.stats.Misrouted++
			f.drainAndFinish(true)
			return
		}
		f.hopLane = lane
		n.stats.LaneSelects++
	}
	if f.pkt.RouteIsDelivered() || f.pkt.AtITBBoundary() {
		// Route exhausted at a switch (or an ITB marker leaked into
		// the fabric): misroute. The switch discards the packet.
		f.net.stats.Misrouted++
		f.drainAndFinish(true)
		return
	}
	port := int(f.pkt.ConsumeRouteByte())
	var out *topology.Link
	if port < info.ports {
		out = n.topo.LinkAt(node, port)
	}
	if out == nil {
		f.net.stats.Misrouted++
		f.drainAndFinish(true)
		return
	}
	if n.crossFault(f, out.ID) {
		// The selected output cable is down: the switch kills the
		// stream (CRC-kill on a dead cable), releasing held channels as
		// the body drains.
		n.stats.FaultKilled++
		n.emit(trace.Dropped, node, f.pkt.ID, "link-down")
		f.drainAndFinish(true)
		return
	}
	cross := n.par.FallThrough + n.portExtra(via.Type) + n.portExtra(out.Type)
	f.prop += cross + n.par.WireLatency
	f.state = flightInFlight
	f.hopLink = out
	f.hopFromA = out.FromA(node, port)
	// Pay the fall-through, then contend for the output channel.
	n.eng.Schedule(cross, f.fnCross)
}

// Accept is called by the destination endpoint to start draining the
// packet into a receive buffer. It computes the tail arrival time.
func (f *Flight) Accept() {
	if f.state != flightAtEndpoint {
		panic("fabric: Accept on flight not at endpoint")
	}
	f.stall += f.net.eng.Now() - f.waitStart
	f.drainAndFinish(false)
}

// Drop is called by the destination endpoint instead of Accept when
// no buffer is available (buffer-pool overflow): the packet is flushed
// by the NIC, draining from the network without being received. GM's
// reliability layer will retransmit it.
func (f *Flight) Drop() {
	if f.state != flightAtEndpoint {
		panic("fabric: Drop on flight not at endpoint")
	}
	f.stall += f.net.eng.Now() - f.waitStart
	f.drainAndFinish(true)
}

// drainAndFinish schedules the tail's arrival and the release of all
// held channels.
func (f *Flight) drainAndFinish(dropped bool) {
	n := f.net
	now := n.eng.Now()
	f.state = flightDraining
	f.dropped = dropped
	tB := n.par.ByteTime()
	// Earliest the last byte can leave the source: paced by the
	// source DMA, or by upstream reception for cut-through ITB
	// re-injection.
	tailReadySrc := f.headerOutAt + units.Time(f.wireLen)*f.opts.SourceByteTime
	if f.opts.TailReadyAt > tailReadySrc {
		tailReadySrc = f.opts.TailReadyAt
	}
	// Tail fully at the endpoint: streaming at link rate from header
	// arrival, but never before the tail has left the source and
	// propagated across the (unstalled) pipeline.
	f.completeAt = now + units.Time(f.wireLen)*tB
	if t := tailReadySrc + f.prop; t > f.completeAt {
		f.completeAt = t
	}
	tailLeavesSrc := f.completeAt - f.prop
	if tailLeavesSrc < now {
		// The body is already fully buffered downstream.
		tailLeavesSrc = now
	}
	if f.opts.OnTailOut != nil {
		f.tailOutAt = tailLeavesSrc
		n.eng.ScheduleAt(tailLeavesSrc, f.fnTailOut)
	}
	done := f.completeAt
	if n.par.ProgressiveRelease {
		// Free each channel when the tail passes it: the completion
		// instant minus the remaining pipeline delay downstream of the
		// channel's exit. Release instants are nondecreasing along the
		// held list, and all precede the done event, so the flight is
		// never recycled with a release still pending.
		for i, c := range f.held {
			relAt := done - (f.prop - f.heldProp[i])
			if relAt < now {
				relAt = now
			}
			n.eng.ScheduleArgAt(relAt, f.fnRelease, c)
		}
		f.held = f.held[:0]
		f.heldProp = f.heldProp[:0]
	}
	n.eng.ScheduleAt(done, f.fnDone)
}

// tailOut fires the OnTailOut callback at the tail's departure time.
func (f *Flight) tailOut() { f.opts.OnTailOut(f.tailOutAt) }

// finish runs at the tail's full arrival: release held channels,
// deliver or drop, and return the flight to its network's pool.
func (f *Flight) finish() {
	n := f.net
	for _, c := range f.held {
		c.release(n.eng, f)
	}
	f.held = f.held[:0]
	f.heldProp = f.heldProp[:0]
	f.state = flightDone
	done := f.completeAt
	if f.dropped {
		n.stats.Dropped++
		n.emit(trace.Dropped, f.dstHost, f.pkt.ID, "")
		if f.opts.OnDropped != nil {
			f.opts.OnDropped(done)
		}
		// The packet dies here: no endpoint will ever see it, and the
		// sender's OnTailOut (which releases any NIC-side reference)
		// fired strictly earlier — the tail left the source before it
		// could fully arrive anywhere. Pool packets go back to the
		// pool; foreign ones fall to the GC.
		packet.Recycle(f.pkt)
		n.putFlight(f)
		return
	}
	n.stats.Delivered++
	n.stats.BytesMoved += uint64(f.wireLen)
	// Per-segment (per-hop, across ITB hops) latency distribution:
	// each Flight is one up*/down* segment, so with ITB routing the
	// re-injected remainder shows up as its own sample. No-ops when
	// metrics are disabled (nil histograms).
	n.hSegLat.Observe(float64(done-f.headerOutAt) / 1e3)
	n.hSegStall.Observe(float64(f.stall) / 1e3)
	if !f.pkt.Corrupt && n.corrupts(f.wireLen) {
		f.pkt.Corrupt = true
		n.stats.Corrupted++
	}
	n.emit(trace.Delivered, f.dstHost, f.pkt.ID, "")
	ep := n.eps[f.dstHost]
	ep.PacketReceived(f.pkt, f.headerInAt, done)
	if f.opts.OnDelivered != nil {
		f.opts.OnDelivered(done)
	}
	n.putFlight(f)
}
