package fabric

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Endpoint is the NIC-side consumer of the network attached to a host
// node. The LANai/MCP model implements it.
type Endpoint interface {
	// HeaderArrived is called when a packet header reaches the host's
	// input port. The endpoint must eventually call f.Accept() (to
	// start draining the packet into a receive buffer) or f.Drop()
	// (buffer-pool overflow). Until then the packet blocks in the
	// network, holding every channel it has acquired.
	HeaderArrived(f *Flight)
	// PacketReceived is called when the packet tail has fully arrived
	// after an Accept.
	PacketReceived(pkt *packet.Packet, headerAt, completedAt units.Time)
}

// channel is one virtual lane of one directed half of a physical
// link. With Params.Lanes <= 1 a link direction has exactly one
// channel (the faithful Myrinet configuration); with virtual channels
// each lane is an independently granted resource with its own credit
// accounting, so a packet blocked on lane 0 does not stall a sibling
// on lane 1 of the same wire.
type channel struct {
	res       *sim.Resource
	link      *topology.Link
	fromA     bool
	lane      int
	busy      units.Time // accumulated holding time
	waited    units.Time // accumulated blocking time of requesters
	grants    uint64     // packets that crossed this channel
	lastGrant units.Time
}

// Counters accumulates network-level totals.
type Counters struct {
	Injected   uint64
	Delivered  uint64
	Dropped    uint64
	Misrouted  uint64
	Corrupted  uint64
	BytesMoved uint64
	// FaultKilled counts packets killed by a downed link (included in
	// Dropped).
	FaultKilled uint64
	// ScoutsDropped/ScoutsDuplicated count mapping packets hit by the
	// scout fault process.
	ScoutsDropped    uint64
	ScoutsDuplicated uint64
	// LaneSelects counts in-header [VCTag][lane] pairs consumed at
	// switches (always 0 on a single-lane fabric).
	LaneSelects uint64
}

// Network is the wormhole fabric: all switches and links of a
// topology, driven by a shared event engine.
type Network struct {
	eng  *sim.Engine
	topo *topology.Topology
	par  Params
	// maxLanes is the per-direction virtual-channel count (>= 1).
	maxLanes int
	// chans holds the lanes of the two directed channels of every
	// link, indexed (2*linkID+dir)*maxLanes+lane with dir 0 for A->B
	// and 1 for B->A; link ids are dense, so a flat slice replaces the
	// old map lookup on the per-hop path. With maxLanes == 1 the
	// layout (and every index computed into it) is identical to the
	// pre-VC chans[2*link+dir] form.
	chans []*channel
	// nodes holds each node's kind and port count, indexed by node id,
	// and eps each host's endpoint: the per-hop reads index these
	// dense slices instead of copying a topology.Node record (name
	// included) or hashing into a map.
	nodes  []nodeInfo
	eps    []Endpoint
	next   uint64
	stats  Counters
	tracer *trace.Recorder
	faults *rand.Rand

	// flightPool is the free-list of finished flights: Inject reuses
	// the object, its slices, and its closure set, so steady-state
	// traversal allocates nothing.
	flightPool []*Flight

	// Live metrics instruments (nil when metrics are disabled; the
	// instruments no-op on nil receivers, so the hot paths call them
	// unconditionally and pay only a nil check).
	mx        *metrics.Registry
	hSegLat   *metrics.Histogram
	hSegStall *metrics.Histogram

	// Campaign fault state (see faults.go). linkFaults is indexed by
	// link id and stays nil until the first fault is installed.
	linkFaults    []linkFault
	linkFaultRand *rand.Rand
	scout         scoutFault
}

// nodeInfo is the part of a topology.Node the per-hop path reads.
type nodeInfo struct {
	host  bool
	ports int
}

// New builds the fabric for a topology.
func New(eng *sim.Engine, topo *topology.Topology, par Params) *Network {
	maxLanes := par.Lanes
	if maxLanes < 1 {
		maxLanes = 1
	}
	n := &Network{
		eng:      eng,
		topo:     topo,
		par:      par,
		maxLanes: maxLanes,
		chans:    make([]*channel, 2*len(topo.Links())*maxLanes),
		nodes:    make([]nodeInfo, topo.NumNodes()),
		eps:      make([]Endpoint, topo.NumNodes()),
	}
	for i := range n.nodes {
		nd := topo.Node(topology.NodeID(i))
		n.nodes[i] = nodeInfo{host: nd.Kind == topology.KindHost, ports: nd.Ports}
	}
	mkRes := sim.NewResource
	if par.RoundRobinArbitration {
		mkRes = sim.NewResourceRR
	}
	for i := range topo.Links() {
		l := topo.Link(i)
		for _, fromA := range []bool{true, false} {
			for lane := 0; lane < maxLanes; lane++ {
				// The single-lane resource name is kept exactly as
				// before so traces and deadlock reports stay
				// byte-identical when virtual channels are off.
				name := fmt.Sprintf("link%d.fromA=%v", l.ID, fromA)
				if maxLanes > 1 {
					name = fmt.Sprintf("link%d.fromA=%v.lane%d", l.ID, fromA, lane)
				}
				n.chans[n.laneIdx(l.ID, fromA, lane)] = &channel{
					res:   mkRes(name),
					link:  l,
					fromA: fromA,
					lane:  lane,
				}
			}
		}
	}
	if par.BitErrorRate > 0 {
		n.faults = rand.New(rand.NewSource(par.FaultSeed + 1))
	}
	return n
}

// corrupts decides whether a packet of wireLen bytes survives one
// network transit under the configured bit error rate.
func (n *Network) corrupts(wireLen int) bool {
	if n.faults == nil {
		return false
	}
	// P(at least one corrupted byte) = 1 - (1-BER)^len.
	p := 1 - math.Pow(1-n.par.BitErrorRate, float64(wireLen))
	return n.faults.Float64() < p
}

// Attach registers the NIC endpoint of a host node.
func (n *Network) Attach(host topology.NodeID, ep Endpoint) {
	if !n.nodes[host].host {
		panic(fmt.Sprintf("fabric: attach to non-host node %d", host))
	}
	if n.eps[host] != nil {
		panic(fmt.Sprintf("fabric: host %d already has an endpoint", host))
	}
	n.eps[host] = ep
}

// Engine returns the event engine driving the network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Topology returns the network's topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Params returns the timing constants.
func (n *Network) Params() Params { return n.par }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Counters { return n.stats }

// SetTracer attaches an event recorder (nil to detach).
func (n *Network) SetTracer(r *trace.Recorder) { n.tracer = r }

// SetMetrics attaches a metrics registry (nil to detach). The network
// records per-segment latency and stall histograms live; counter and
// per-link totals are published at end of run via PublishMetrics.
func (n *Network) SetMetrics(r *metrics.Registry) {
	n.mx = r
	n.hSegLat = r.Histogram("fabric.segment_latency_ns", metrics.DefaultLatencyBucketsNs())
	n.hSegStall = r.Histogram("fabric.segment_stall_ns", metrics.DefaultLatencyBucketsNs())
}

// PublishMetrics dumps the network's end-of-run totals into r: the
// global Counters plus per-directed-channel utilisation (busy and
// waited time in nanoseconds, packets crossed), keyed
// "fabric.link<ID>.<a2b|b2a>.<what>". Links are walked in topology
// order, so the publication is deterministic.
func (n *Network) PublishMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	s := n.stats
	r.Counter("fabric.injected").Add(s.Injected)
	r.Counter("fabric.delivered").Add(s.Delivered)
	r.Counter("fabric.dropped").Add(s.Dropped)
	r.Counter("fabric.misrouted").Add(s.Misrouted)
	r.Counter("fabric.corrupted").Add(s.Corrupted)
	r.Counter("fabric.bytes_moved").Add(s.BytesMoved)
	r.Counter("fabric.fault_killed").Add(s.FaultKilled)
	r.Counter("fabric.scouts_dropped").Add(s.ScoutsDropped)
	r.Counter("fabric.scouts_duplicated").Add(s.ScoutsDuplicated)
	// The lane-select counter (and the .laneN key suffix below) only
	// exists on multi-lane fabrics, so single-lane metric snapshots
	// stay byte-identical to the pre-VC fabric.
	if n.maxLanes > 1 {
		r.Counter("fabric.lane_selects").Add(s.LaneSelects)
	}
	for i := range n.topo.Links() {
		l := n.topo.Link(i)
		for _, fromA := range []bool{true, false} {
			for lane := 0; lane < n.maxLanes; lane++ {
				c := n.chans[n.laneIdx(l.ID, fromA, lane)]
				if c == nil || c.grants == 0 && c.busy == 0 && c.waited == 0 {
					continue
				}
				dir := "a2b"
				if !fromA {
					dir = "b2a"
				}
				prefix := fmt.Sprintf("fabric.link%d.%s.", l.ID, dir)
				if n.maxLanes > 1 {
					prefix = fmt.Sprintf("fabric.link%d.%s.lane%d.", l.ID, dir, lane)
				}
				r.Counter(prefix + "busy_ns").Add(uint64(c.busy.Nanoseconds()))
				r.Counter(prefix + "waited_ns").Add(uint64(c.waited.Nanoseconds()))
				r.Counter(prefix + "grants").Add(c.grants)
			}
		}
	}
}

// TagPacket assigns the packet a stable trace id if it has none yet.
// Inject does this implicitly; upper layers call it earlier so their
// pre-injection events correlate.
func (n *Network) TagPacket(pkt *packet.Packet) {
	if pkt.ID == 0 {
		n.next++
		pkt.ID = n.next
	}
}

// emit records a trace event if a recorder is attached.
func (n *Network) emit(k trace.Kind, node topology.NodeID, pktID uint64, detail string) {
	if n.tracer == nil {
		return
	}
	n.tracer.Record(trace.Event{At: n.eng.Now(), Kind: k, Node: node, Packet: pktID, Detail: detail})
}

// ChannelBusy returns the accumulated busy time of the directed
// channel of the given link sent from its A (or B) end, summed over
// its lanes, for utilisation metrics.
func (n *Network) ChannelBusy(link int, fromA bool) units.Time {
	var busy units.Time
	for lane := 0; lane < n.maxLanes; lane++ {
		busy += n.LaneBusy(link, fromA, lane)
	}
	return busy
}

// LaneBusy returns the accumulated busy time of one lane of a
// directed channel.
func (n *Network) LaneBusy(link int, fromA bool, lane int) units.Time {
	if link < 0 || lane < 0 || lane >= n.maxLanes {
		return 0
	}
	idx := n.laneIdx(link, fromA, lane)
	if idx >= len(n.chans) {
		return 0
	}
	c := n.chans[idx]
	if c == nil {
		return 0
	}
	return c.busy
}

// StuckFlight describes one packet wedged in the network when the
// simulation went quiescent: the classic wormhole deadlock symptom
// (nothing to do, channels still held).
type StuckFlight struct {
	Packet    *packet.Packet
	Source    topology.NodeID
	HeldLinks []int // link ids of channels the flight holds
	// WaitingFor is the link id of the channel whose queue the flight
	// sits in, or -1 if it is waiting for an endpoint buffer.
	WaitingFor int
	// HeldBy identifies the packet currently owning that channel, or
	// nil.
	HeldBy *packet.Packet
}

// DetectStuck inspects every channel for waiters after the event
// queue has drained and reconstructs the wait-for relationships. An
// empty result means the network is clean; a non-empty one is a
// protocol deadlock (e.g. minimal routing without ITBs, or blocking
// receive buffers pinned by in-transit packets). Purely diagnostic —
// the simulation state is not modified. Channels are walked in link
// order, so the report order is deterministic.
func (n *Network) DetectStuck() []StuckFlight {
	var out []StuckFlight
	seen := map[*Flight]bool{}
	collect := func(f *Flight, waitLink int, holder *Flight) {
		if seen[f] {
			return
		}
		seen[f] = true
		sf := StuckFlight{
			Packet:     f.pkt,
			Source:     f.src,
			WaitingFor: waitLink,
		}
		for _, c := range f.held {
			sf.HeldLinks = append(sf.HeldLinks, c.link.ID)
		}
		if holder != nil {
			sf.HeldBy = holder.pkt
		}
		out = append(out, sf)
	}
	// Waiters first: in a deadlock cycle every flight is both a waiter
	// and a holder, and the waiter view carries the wait-for edge.
	for _, c := range n.chans {
		for _, w := range c.res.Waiters() {
			if f, ok := w.(*Flight); ok {
				holder, _ := c.res.Owner().(*Flight)
				collect(f, c.link.ID, holder)
			}
		}
	}
	// Then holders of contended channels that are not themselves
	// queued anywhere (e.g. wedged on an endpoint buffer).
	for _, c := range n.chans {
		if c.res.QueueLen() == 0 {
			continue
		}
		if holder, ok := c.res.Owner().(*Flight); ok && !holder.Done() {
			collect(holder, -1, nil)
		}
	}
	return out
}

// SwitchLoad summarises one switch's traffic.
type SwitchLoad struct {
	Switch topology.NodeID
	// Busy is the summed holding time of the switch's outgoing
	// switch-to-switch channels.
	Busy units.Time
	// Waited is the total time packets spent blocked on those
	// channels — the head-of-line contention concentrated here.
	Waited units.Time
}

// SwitchLoads aggregates per-switch channel occupancy and blocking,
// the observable behind the paper's "up*/down* saturates the zone
// near the root" claim.
func (n *Network) SwitchLoads() []SwitchLoad {
	bySwitch := make(map[topology.NodeID]*SwitchLoad)
	for _, c := range n.chans {
		from := c.link.NodeAt(c.fromA)
		to := c.link.NodeAt(!c.fromA)
		if n.nodes[from].host || n.nodes[to].host {
			continue
		}
		sl := bySwitch[from]
		if sl == nil {
			sl = &SwitchLoad{Switch: from}
			bySwitch[from] = sl
		}
		sl.Busy += c.busy
		sl.Waited += c.waited
	}
	out := make([]SwitchLoad, 0, len(bySwitch))
	for _, sw := range n.topo.Switches() {
		if sl := bySwitch[sw]; sl != nil {
			out = append(out, *sl)
		} else {
			out = append(out, SwitchLoad{Switch: sw})
		}
	}
	return out
}

// InjectOpts tunes one injection.
type InjectOpts struct {
	// SourceByteTime is the per-byte pacing of the source NIC (the
	// slower of the link and whatever feeds the send DMA). Zero means
	// link rate.
	SourceByteTime units.Time
	// TailReadyAt is the earliest instant the packet's last byte is
	// available at the source. Used for virtual cut-through
	// re-injection, where the send DMA must not outrun reception.
	TailReadyAt units.Time
	// OnHeaderOut fires when the header leaves the source NIC.
	OnHeaderOut func(t units.Time)
	// OnTailOut fires when the last byte leaves the source NIC: the
	// send DMA engine becomes free.
	OnTailOut func(t units.Time)
	// OnDelivered fires when the destination endpoint has the whole
	// packet.
	OnDelivered func(t units.Time)
	// OnDropped fires if the packet is dropped (misroute or receiver
	// overflow).
	OnDropped func(t units.Time)
}

// Inject starts a packet from a host into the network. The packet's
// Route bytes steer it; the flight ends at whichever host port the
// route delivers it to (for an ITB route, the in-transit host, whose
// MCP re-injects the rest with a fresh Inject).
//
// The returned Flight is owned by the network: once it reports Done
// (delivered or dropped) a later Inject may recycle the object, so
// callers must not read it after a subsequent injection.
func (n *Network) Inject(pkt *packet.Packet, src topology.NodeID, opts InjectOpts) *Flight {
	if !n.nodes[src].host {
		panic(fmt.Sprintf("fabric: inject from non-host node %d", src))
	}
	if opts.SourceByteTime < n.par.ByteTime() {
		opts.SourceByteTime = n.par.ByteTime()
	}
	n.next++
	n.TagPacket(pkt)
	f := n.getFlight()
	f.id = n.next
	f.pkt = pkt
	f.src = src
	f.opts = opts
	f.wireLen = pkt.WireLen()
	n.stats.Injected++
	if n.tracer != nil {
		n.emit(trace.Inject, src, pkt.ID, fmt.Sprintf("len=%dB", f.wireLen))
	}
	hostLink := n.topo.LinkAt(src, 0)
	if hostLink == nil {
		panic(fmt.Sprintf("fabric: host %d is not cabled", src))
	}
	if dup := n.scoutInject(pkt); dup != nil {
		// The duplicate leaves once the original's tail has vacated the
		// NIC, as a spurious retransmission would.
		n.eng.Schedule(units.Time(f.wireLen)*opts.SourceByteTime, func() {
			n.scout.suppress = true
			n.Inject(dup, src, InjectOpts{})
			n.scout.suppress = false
		})
	}
	if n.crossFault(f, hostLink.ID) {
		// The host cable is down: the stream dies on the wire and the
		// send DMA completes into nothing (OnTailOut/OnDropped fire as
		// usual, so the NIC's send engine is freed normally).
		n.stats.FaultKilled++
		f.headerOutAt = n.eng.Now()
		n.emit(trace.Dropped, src, pkt.ID, "link-down")
		f.drainAndFinish(true)
		return f
	}
	f.waitStart = n.eng.Now()
	f.hopLink = hostLink
	f.hopFromA = hostLink.FromA(src, 0)
	// An injection always starts on lane 0; the first switch consumes
	// any leading [VCTag][lane] pair and moves the packet over.
	f.hopLane = 0
	f.hopCh = n.chanOf(hostLink, f.hopFromA, 0)
	// Accumulate the hop's propagation before acquiring, so the
	// channel's heldProp marks the pipeline delay through its exit.
	f.prop += n.par.WireLatency
	f.hopCh.acquire(f, -1, f.fnInjected)
	return f
}

// getFlight takes a flight from the pool (or builds one), reset and
// ready for a new injection.
func (n *Network) getFlight() *Flight {
	if k := len(n.flightPool); k > 0 {
		f := n.flightPool[k-1]
		n.flightPool = n.flightPool[:k-1]
		f.reset()
		return f
	}
	return newFlight(n)
}

// putFlight returns a finished flight to the pool. The state is left
// readable (see Flight doc) and cleared on the next getFlight.
func (n *Network) putFlight(f *Flight) {
	n.flightPool = append(n.flightPool, f)
}

// chanIdx maps a directed link end to its direction slot; lane 0 of
// that direction lives at chanIdx*maxLanes in Network.chans.
func chanIdx(link int, fromA bool) int {
	idx := 2 * link
	if !fromA {
		idx++
	}
	return idx
}

// laneIdx maps a (directed link end, lane) pair to its slot in
// Network.chans.
func (n *Network) laneIdx(link int, fromA bool, lane int) int {
	return chanIdx(link, fromA)*n.maxLanes + lane
}

func (n *Network) chanOf(l *topology.Link, fromA bool, lane int) *channel {
	return n.chans[chanIdx(l.ID, fromA)*n.maxLanes+lane]
}

// acquire queues the flight on the channel. class identifies the
// crossbar input the request arrives on (the incoming link id), which
// round-robin arbitration cycles over. The grant callback must stamp
// c.lastGrant itself (the flight's persistent closures do); wrapping
// fn here would cost one closure allocation per hop.
func (c *channel) acquire(f *Flight, class int, fn func()) {
	f.held = append(f.held, c)
	f.heldProp = append(f.heldProp, f.prop)
	c.res.AcquireClass(f, class, fn)
}

func (c *channel) release(eng *sim.Engine, f *Flight) {
	c.busy += eng.Now() - c.lastGrant
	c.grants++
	c.res.Release(f)
}

// portExtra returns the pipeline delay of one port of the given type.
func (n *Network) portExtra(t topology.PortType) units.Time {
	if t == topology.LAN {
		return n.par.PortExtraLAN
	}
	return n.par.PortExtraSAN
}
