// Decentralized SWIM-style failure detection. Where the monitor
// Manager observes the cluster from one un-failable vantage point,
// the Gossip detector runs one agent per host, each doing a
// peer-sampling probe cycle over the real fabric:
//
//   - Every Period an agent direct-probes the next host of its
//     shuffled ring (a mapping probe the target's MCP answers
//     autonomously). A missed reply fans out IndirectProbes ping-req
//     relays — other peers probe the target on the agent's behalf —
//     before the agent suspects the target.
//   - Suspicion is spread, not declared: every protocol packet (and a
//     budgeted fraction of data packets, consumed at in-transit
//     hosts) piggybacks a bounded membership digest of recent state
//     claims, each guarded by the subject's incarnation number. A
//     suspected or obituarized host that hears about itself bumps its
//     incarnation and gossips an alive claim that overrides the stale
//     verdict — the SWIM refutation rule, which is what makes the
//     protocol safe under flapping.
//   - A suspicion no alive-claim refutes within SuspicionPeriods
//     periods is confirmed locally; the confirming agent rebuilds its
//     own route table around its local dead set (the lazy form of the
//     base table's rebuild the monitor uses) and installs it under a
//     fresh epoch. Consensus is emergent: the dead claim
//     gossips outward and every agent converges on the same avoid
//     set, host by host, with no coordinator. Killing any single
//     host — including the one the monitor design elected — only
//     removes one probing vantage point.
//
// Message forwarding stays correct while views disagree (the
// snap-stabilizing property the mixed-epoch machinery provides):
// packets stamped under any epoch follow the finite source route they
// carry, so they either deliver or die on a dead link and GM
// retransmits them; they never loop.
//
// Determinism: agents use private seeded RNGs, all protocol state
// lives in index-ordered slices, and maps are keyed lookups only —
// never iterated — so a run is byte-identical at any worker count.
package recovery

import (
	"fmt"
	"math/rand"

	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// member is one agent's belief about one peer.
type member struct {
	state     packet.GossipState
	inc       uint32
	suspectAt units.Time
}

// gossipUpdate is a state claim waiting to be disseminated; sends
// counts the digests it has ridden, seq breaks ordering ties
// deterministically.
type gossipUpdate struct {
	entry packet.GossipEntry
	sends int
	seq   uint64
}

// probeCycle tracks one probe round against one target across its
// direct and indirect stages. Any reply or ping-ack carrying one of
// its nonces completes it.
type probeCycle struct {
	target int
	done   bool
	nonces []uint32
}

// relayState is a pending ping-req this agent is relaying for a peer.
type relayState struct {
	origin      int32
	originNonce uint32
	target      int32
	originRoute []byte
}

// agent is the per-host protocol instance.
type agent struct {
	g    *Gossip
	idx  int
	host *gm.Host
	node topology.NodeID
	rng  *rand.Rand

	inc     uint32
	members []member // indexed like Gossip.hosts; self entry unused
	// nonAlive counts the members held suspect or dead; setState keeps
	// it in step with every state change.
	nonAlive int
	order    []int // shuffled probe ring of the other host indexes
	pos      int

	updates   []gossipUpdate
	updateSeq uint64

	outstanding   map[uint32]*probeCycle
	relays        map[uint32]relayState
	dataCountdown int
}

// globView is the cluster-level instrumentation view of one host:
// the consensus state the Detector accessors report, and the
// first-miss anchor the detection-latency summary measures from.
type globView struct {
	state       State
	firstMissAt units.Time
}

// episode tracks route convergence after a global confirmation: it
// completes when every agent alive at confirm time has installed a
// table avoiding the victim (agents that die meanwhile are excused).
type episode struct {
	victim  int
	trigger units.Time
	need    []bool
	left    int
}

// Gossip runs the decentralized detector over one cluster. It
// implements Detector.
type Gossip struct {
	cfg    Config
	eng    *sim.Engine
	topo   *topology.Topology
	base   *routing.Table
	finder *routing.Finder // probe routes
	hosts  []*gm.Host
	tracer *trace.Recorder

	sched   Scheduler
	agents  []*agent
	idxOf   map[topology.NodeID]int
	glob    []globView
	epsodes []*episode

	// Vote counters back the consensus view: a host is globally
	// Suspected while any agent suspects it, and globally Confirmed
	// once a majority of agents hold it dead. Majority matters: an
	// isolated agent (its own NIC dead) locally suspects and buries
	// everyone it can no longer reach, and — exactly as in the real
	// protocol, where its claims cannot spread — those lone verdicts
	// must not count as cluster state.
	suspectVotes []int
	deadVotes    []int
	quorum       int

	nonce    uint32
	epoch    uint32
	spreadTx int // dissemination budget per update (≈ 3·log₂N)
	started  bool
	stats    Stats
}

// NewGossip builds (but does not start) the decentralized detector.
// Target.Monitor is ignored: there is none.
func NewGossip(cfg Config, tgt Target) (*Gossip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deadline <= 0 {
		return nil, fmt.Errorf("recovery: Config.Deadline is required (it bounds the probe process)")
	}
	if tgt.Eng == nil || tgt.Topo == nil || tgt.Base == nil {
		return nil, fmt.Errorf("recovery: incomplete target")
	}
	if len(tgt.Hosts) < 2 {
		return nil, fmt.Errorf("recovery: gossip needs at least two hosts")
	}
	finder, err := routing.NewFinder(tgt.Topo, tgt.Base.Orientation())
	if err != nil {
		return nil, err
	}
	g := &Gossip{
		cfg:    cfg.withDefaults(),
		eng:    tgt.Eng,
		topo:   tgt.Topo,
		base:   tgt.Base,
		finder: finder,
		hosts:  tgt.Hosts,
		tracer: tgt.Tracer,
		idxOf:  make(map[topology.NodeID]int, len(tgt.Hosts)),
		glob:   make([]globView, len(tgt.Hosts)),
	}
	g.suspectVotes = make([]int, len(tgt.Hosts))
	g.deadVotes = make([]int, len(tgt.Hosts))
	// Majority of the cluster, capped at N-1 (a host never votes on
	// itself, so N-1 is the most votes a verdict can gather).
	g.quorum = len(tgt.Hosts)/2 + 1
	if g.quorum > len(tgt.Hosts)-1 {
		g.quorum = len(tgt.Hosts) - 1
	}
	g.stats.Detection = &stats.Summary{}
	g.stats.Convergence = &stats.Summary{}
	// Dissemination budget: every update rides ~3·log₂(N) digests, the
	// classic SWIM retransmission count for whole-cluster coverage
	// with high probability.
	n := len(tgt.Hosts)
	for tx := 1; 1<<tx < n+1; tx++ {
		g.spreadTx = tx
	}
	g.spreadTx = 3*g.spreadTx + 3
	for i, h := range tgt.Hosts {
		g.idxOf[h.Node()] = i
		a := &agent{
			g:           g,
			idx:         i,
			host:        h,
			node:        h.Node(),
			rng:         rand.New(rand.NewSource(g.cfg.Seed + int64(i)*7919 + 1)),
			members:     make([]member, n),
			outstanding: make(map[uint32]*probeCycle),
			relays:      make(map[uint32]relayState),
		}
		for j := 0; j < n; j++ {
			if j != i {
				a.order = append(a.order, j)
			}
		}
		a.rng.Shuffle(len(a.order), func(x, y int) { a.order[x], a.order[y] = a.order[y], a.order[x] })
		a.dataCountdown = g.cfg.DataGossipEvery
		g.agents = append(g.agents, a)
	}
	return g, nil
}

// Start wires every agent into its host's firmware and begins the
// probe rounds at the current simulation time.
func (g *Gossip) Start() {
	if g.started {
		return
	}
	g.started = true
	g.sched = Scheduler{
		Start:    g.eng.Now(),
		Period:   g.cfg.Period,
		Spacing:  g.cfg.Spacing,
		Deadline: g.cfg.Deadline,
	}
	for _, a := range g.agents {
		a := a
		m := a.host.MCP()
		prev := m.OnMapping
		m.OnMapping = func(pm packet.Mapping, t units.Time) {
			if !a.handleMapping(pm) && prev != nil {
				prev(pm, t)
			}
		}
		m.OnGossip = func(entries []packet.GossipEntry, t units.Time) { a.applyDigest(entries, t) }
		m.ProbeDigest = func() []packet.GossipEntry { return a.buildDigest(-1) }
		a.host.GossipStamp = a.stampData
	}
	if g.sched.Rounds() == 0 {
		return
	}
	// Agents spread their one-probe-per-round slots uniformly across
	// the period, so cluster-wide probe load is constant rather than
	// bursty — the decentralized analogue of the monitor's Spacing.
	for _, a := range g.agents {
		a := a
		offset := units.Time(a.idx) * g.cfg.Period / units.Time(len(g.agents))
		g.eng.ScheduleAt(g.sched.RoundStart(0)+offset, func() { a.step(0, offset) })
	}
}

// Accessors (the Detector surface plus test hooks).

// Epoch returns the last installed epoch (0 before any install).
func (g *Gossip) Epoch() uint32 { return g.epoch }

// Stats returns a snapshot of the counters (summaries are shared).
func (g *Gossip) Stats() Stats { return g.stats }

// StateOf returns the cluster-level consensus belief about a host.
func (g *Gossip) StateOf(node topology.NodeID) State {
	if i, ok := g.idxOf[node]; ok {
		return g.glob[i].state
	}
	return Alive
}

// Suspected counts hosts currently suspected cluster-wide.
func (g *Gossip) Suspected() int { return g.countGlob(Suspected) }

// Confirmed counts hosts currently confirmed dead cluster-wide.
func (g *Gossip) Confirmed() int { return g.countGlob(Confirmed) }

func (g *Gossip) countGlob(s State) int {
	n := 0
	for i := range g.glob {
		if g.glob[i].state == s {
			n++
		}
	}
	return n
}

// IncarnationOf returns a host's latest self-incarnation (test hook
// for the refutation machinery).
func (g *Gossip) IncarnationOf(node topology.NodeID) uint32 {
	if i, ok := g.idxOf[node]; ok {
		return g.agents[i].inc
	}
	return 0
}

// PublishMetrics dumps the protocol counters into r under recovery.*.
func (g *Gossip) PublishMetrics(r *metrics.Registry) { g.stats.publish(r) }

// ReportPeerDeadFrom feeds a GM dead-peer verdict to the witnessing
// host's agent: the peer goes straight to locally-suspected (starting
// the refutation clock) and gets one out-of-cycle probe so a merely
// slow peer can clear itself within a round trip.
func (g *Gossip) ReportPeerDeadFrom(witness, peer topology.NodeID) {
	if !g.started {
		return
	}
	w, okW := g.idxOf[witness]
	p, okP := g.idxOf[peer]
	if !okW || !okP || w == p {
		return
	}
	g.stats.PeerReports++
	a := g.agents[w]
	if a.members[p].state == packet.GossipAlive {
		g.noteFirstMiss(p)
		a.suspect(p)
	}
	a.probe(p)
}

// ReportPeerDead is the witness-less fallback of the Detector
// interface: the evidence is credited to the lowest-indexed live
// host that is not the peer itself.
func (g *Gossip) ReportPeerDead(peer topology.NodeID) {
	for i := range g.agents {
		if g.agents[i].node != peer && g.glob[i].state != Confirmed {
			g.ReportPeerDeadFrom(g.agents[i].node, peer)
			return
		}
	}
}

func (g *Gossip) emit(k trace.Kind, node topology.NodeID, detail string) {
	if g.tracer == nil {
		return
	}
	g.tracer.Record(trace.Event{At: g.eng.Now(), Kind: k, Node: node, Detail: detail})
}

// nextNonce issues a cluster-unique probe nonce.
func (g *Gossip) nextNonce() uint32 {
	g.nonce++
	return g.nonce
}

// route appends to buf the up*/down* wire header from host index
// `from` to host index `to`, the pair's route the Finder memoizes, and
// returns it (nil when no route exists). With a nil buf the header is
// a new slice the caller owns. Gossip probes, like the monitor's,
// avoid in-transit hosts: a probe must not depend on a host that may
// itself be the thing being probed.
func (g *Gossip) route(from, to int, buf []byte) []byte {
	r, err := g.finder.FindRoute(g.hosts[from].Node(), g.hosts[to].Node(), nil)
	if err != nil {
		return nil
	}
	hdr, err := r.AppendHeader(buf)
	if err != nil {
		return nil
	}
	return hdr
}

// ---------------------------------------------------------------
// Cluster-level instrumentation (detection/convergence sampling and
// the consensus view the Detector accessors report).

func (g *Gossip) noteFirstMiss(victim int) {
	gv := &g.glob[victim]
	if gv.state == Alive && gv.firstMissAt == 0 {
		gv.firstMissAt = g.eng.Now()
	}
}

func (g *Gossip) noteAlive(victim int) {
	if gv := &g.glob[victim]; gv.state == Alive {
		gv.firstMissAt = 0
	}
}

// voteSuspect records one agent's alive -> suspect transition for a
// member. The first standing suspicion anywhere flips the global view.
func (g *Gossip) voteSuspect(victim int) {
	g.suspectVotes[victim]++
	if g.suspectVotes[victim] != 1 {
		return
	}
	gv := &g.glob[victim]
	if gv.state != Alive {
		return
	}
	gv.state = Suspected
	if gv.firstMissAt == 0 {
		gv.firstMissAt = g.eng.Now()
	}
	g.stats.HostsSuspected++
	g.emit(trace.HostSuspected, g.hosts[victim].Node(), "gossip")
}

// unvoteSuspect records a suspect -> {alive,dead} transition; when
// the last suspicion clears without a dead quorum the host is
// globally restored.
func (g *Gossip) unvoteSuspect(victim int) {
	g.suspectVotes[victim]--
	if g.suspectVotes[victim] != 0 || g.deadVotes[victim] >= g.quorum {
		return
	}
	gv := &g.glob[victim]
	if gv.state != Suspected {
		return
	}
	gv.state = Alive
	gv.firstMissAt = 0
	g.stats.HostsRestored++
	g.emit(trace.HostRestored, g.hosts[victim].Node(), "refuted")
}

// voteDead records one agent's transition to holding a member dead;
// crossing the majority quorum confirms the death cluster-wide.
func (g *Gossip) voteDead(victim int) {
	g.deadVotes[victim]++
	if g.deadVotes[victim] == g.quorum {
		g.confirmGlob(victim)
	}
}

// unvoteDead records a dead -> alive override; dropping below quorum
// resurrects the host cluster-wide.
func (g *Gossip) unvoteDead(victim int) {
	g.deadVotes[victim]--
	if g.deadVotes[victim] == g.quorum-1 {
		g.resurrectGlob(victim)
	}
}

func (g *Gossip) confirmGlob(victim int) {
	gv := &g.glob[victim]
	if gv.state == Confirmed {
		return
	}
	gv.state = Confirmed
	trigger := gv.firstMissAt
	if trigger == 0 {
		trigger = g.eng.Now()
	}
	g.stats.HostsConfirmed++
	g.stats.Detection.Add(float64(g.eng.Now() - trigger))
	if g.tracer != nil {
		g.emit(trace.HostConfirmed, g.hosts[victim].Node(), fmt.Sprintf("after=%v", g.eng.Now()-trigger))
	}
	ep := &episode{victim: victim, trigger: trigger, need: make([]bool, len(g.agents))}
	for i := range g.agents {
		// Agents that already hold the victim dead installed (or have
		// scheduled) their avoiding table before this quorum was
		// reached; the episode waits on the rest — the stragglers are
		// what determine convergence time.
		if i != victim && g.glob[i].state != Confirmed && g.agents[i].members[victim].state != packet.GossipDead {
			ep.need[i] = true
			ep.left++
		}
	}
	if ep.left == 0 {
		g.stats.Convergence.Add(float64(g.eng.Now() - trigger))
	} else {
		g.epsodes = append(g.epsodes, ep)
	}
	// A confirmed host will never install tables: excuse it from every
	// pending episode.
	g.excuseFromEpisodes(victim)
}

func (g *Gossip) resurrectGlob(victim int) {
	gv := &g.glob[victim]
	if gv.state != Confirmed {
		return
	}
	gv.state = Alive
	gv.firstMissAt = 0
	g.stats.Resurrections++
	g.emit(trace.HostRestored, g.hosts[victim].Node(), "resurrect")
	// Its pending convergence episode is moot.
	keep := g.epsodes[:0]
	for _, ep := range g.epsodes {
		if ep.victim != victim {
			keep = append(keep, ep)
		}
	}
	g.epsodes = keep
}

// noteInstall records an agent's table install for convergence
// sampling: tbl is the installed table, built around the agent's
// local dead set.
func (g *Gossip) noteInstall(agentIdx int, tbl *routing.Table) {
	now := g.eng.Now()
	keep := g.epsodes[:0]
	for _, ep := range g.epsodes {
		if ep.need[agentIdx] && tbl.Avoids(g.hosts[ep.victim].Node()) {
			ep.need[agentIdx] = false
			ep.left--
		}
		if ep.left == 0 {
			g.stats.Convergence.Add(float64(now - ep.trigger))
		} else {
			keep = append(keep, ep)
		}
	}
	g.epsodes = keep
}

func (g *Gossip) excuseFromEpisodes(agentIdx int) {
	now := g.eng.Now()
	keep := g.epsodes[:0]
	for _, ep := range g.epsodes {
		if ep.need[agentIdx] {
			ep.need[agentIdx] = false
			ep.left--
		}
		if ep.left == 0 {
			g.stats.Convergence.Add(float64(now - ep.trigger))
		} else {
			keep = append(keep, ep)
		}
	}
	g.epsodes = keep
}

// ---------------------------------------------------------------
// The per-agent protocol.

// step runs one probe round and chains the next.
func (a *agent) step(r int, offset units.Time) {
	if t := a.pickTarget(); t >= 0 {
		a.probe(t)
	}
	if next := r + 1; next < a.g.sched.Rounds() {
		a.g.eng.ScheduleAt(a.g.sched.RoundStart(next)+offset, func() { a.step(next, offset) })
	}
}

// pickTarget advances the shuffled probe ring, reshuffling at each
// wrap (SWIM's round-robin-over-random-permutation: every peer is
// probed within one ring pass, dead ones included so obituaries keep
// reaching revived hosts).
func (a *agent) pickTarget() int {
	if len(a.order) == 0 {
		return -1
	}
	t := a.order[a.pos]
	a.pos++
	if a.pos == len(a.order) {
		a.pos = 0
		a.rng.Shuffle(len(a.order), func(x, y int) { a.order[x], a.order[y] = a.order[y], a.order[x] })
	}
	return t
}

// probe runs the direct stage against target index t.
func (a *agent) probe(t int) {
	g := a.g
	var rb [packet.MaxRouteLen]byte
	fwd, ret := g.route(a.idx, t, nil), g.route(t, a.idx, rb[:0])
	if fwd == nil || ret == nil {
		return // partitioned by topology: nothing to learn
	}
	n := g.nextNonce()
	pc := &probeCycle{target: t, nonces: []uint32{n}}
	a.outstanding[n] = pc
	g.stats.ProbesSent++
	a.sendMapping(&packet.Packet{
		Route: fwd,
		Type:  packet.TypeMapping,
		Src:   int(a.node),
		Dst:   int(g.hosts[t].Node()),
		Payload: packet.EncodeMapping(packet.Mapping{
			Kind:        packet.MappingProbe,
			Nonce:       n,
			Origin:      int32(a.node),
			ReturnRoute: ret,
			Digest:      a.buildDigest(t),
		}),
	})
	g.eng.Schedule(g.cfg.Timeout, func() { a.directTimeout(n, pc) })
}

func (a *agent) sendMapping(p *packet.Packet) {
	a.host.MCP().SubmitSend(p, nil, nil)
}

// directTimeout fires when the direct probe went unanswered: fan out
// the indirect stage, or — for an already non-alive target — let the
// standing verdict ride.
func (a *agent) directTimeout(n uint32, pc *probeCycle) {
	g := a.g
	if _, ok := a.outstanding[n]; !ok {
		return // answered in time
	}
	delete(a.outstanding, n)
	if pc.done {
		return
	}
	g.stats.ProbeMisses++
	t := pc.target
	if a.members[t].state != packet.GossipAlive {
		return // already suspected or dead in this agent's view
	}
	g.noteFirstMiss(t)
	relays := a.pickRelays(t)
	if len(relays) == 0 {
		a.suspect(t)
		return
	}
	sent := 0
	for _, rIdx := range relays {
		var hb [packet.MaxRouteLen]byte
		fwd, home := g.route(a.idx, rIdx, nil), g.route(rIdx, a.idx, hb[:0])
		if fwd == nil || home == nil {
			continue
		}
		n2 := g.nextNonce()
		pc.nonces = append(pc.nonces, n2)
		a.outstanding[n2] = pc
		g.stats.VerifyProbes++
		a.sendMapping(&packet.Packet{
			Route: fwd,
			Type:  packet.TypeMapping,
			Src:   int(a.node),
			Dst:   int(g.hosts[rIdx].Node()),
			Payload: packet.EncodeMapping(packet.Mapping{
				Kind:        packet.MappingPingReq,
				Nonce:       n2,
				Origin:      int32(a.node),
				Target:      int32(g.hosts[t].Node()),
				ReturnRoute: home,
				Digest:      a.buildDigest(t),
			}),
		})
		sent++
	}
	if sent == 0 {
		a.suspect(t)
		return
	}
	// The relay leg is probe + reply + ack: give it three timeouts
	// before the suspicion verdict.
	g.eng.Schedule(3*g.cfg.Timeout, func() { a.indirectTimeout(pc) })
}

// indirectTimeout gives the verdict after the ping-req stage.
func (a *agent) indirectTimeout(pc *probeCycle) {
	for _, n := range pc.nonces {
		delete(a.outstanding, n)
	}
	if pc.done {
		return
	}
	if a.members[pc.target].state == packet.GossipAlive {
		a.suspect(pc.target)
	}
}

// pickRelays chooses the next IndirectProbes alive peers on the ring
// after the current position, skipping the target.
func (a *agent) pickRelays(t int) []int {
	var out []int
	for off := 0; off < len(a.order) && len(out) < a.g.cfg.IndirectProbes; off++ {
		c := a.order[(a.pos+off)%len(a.order)]
		if c == t || a.members[c].state != packet.GossipAlive {
			continue
		}
		out = append(out, c)
	}
	return out
}

// suspect marks t suspected in this agent's view, spreads the claim,
// and arms the local confirmation timer.
func (a *agent) suspect(t int) {
	g := a.g
	m := &a.members[t]
	if m.state != packet.GossipAlive {
		return
	}
	a.setState(t, packet.GossipSuspect)
	m.suspectAt = g.eng.Now()
	a.enqueue(packet.GossipEntry{Node: int32(g.hosts[t].Node()), Incarnation: m.inc, State: packet.GossipSuspect})
	g.voteSuspect(t)
	a.armConfirm(t, m.inc, m.suspectAt)
}

func (a *agent) armConfirm(t int, inc uint32, at units.Time) {
	g := a.g
	g.eng.Schedule(units.Time(g.cfg.SuspicionPeriods)*g.cfg.Period, func() {
		m := &a.members[t]
		if m.state == packet.GossipSuspect && m.inc == inc && m.suspectAt == at {
			a.confirmDead(t)
		}
	})
}

// confirmDead gives this agent's local dead verdict and rebuilds its
// own routes around its dead set.
func (a *agent) confirmDead(t int) {
	g := a.g
	m := &a.members[t]
	a.setState(t, packet.GossipDead)
	a.enqueue(packet.GossipEntry{Node: int32(g.hosts[t].Node()), Incarnation: m.inc, State: packet.GossipDead})
	g.unvoteSuspect(t)
	g.voteDead(t)
	a.installTable()
}

// installTable rebuilds this agent's route table around its local
// dead set and installs it on its own host under a fresh epoch. The
// rebuild is seeded from the base table, never from an earlier
// install: the table depends on the dead set alone, not on the order
// it was confirmed in, and it references only the base, so it lives
// only while pending or installed. It is lazy: an install allocates
// the table, and only the pairs the host actually uses pay validation
// or search. The table carries the dead set as its exclusion set,
// which is what the install and the convergence sampling read.
func (a *agent) installTable() {
	g := a.g
	dead := 0
	for i := range a.members {
		if i != a.idx && a.members[i].state == packet.GossipDead {
			dead++
		}
	}
	// Counting first makes the set outside any loop, so it stays on
	// the stack (the table keeps its own copy) and only its words are
	// allocated.
	var avoid *routing.Avoid
	if dead > 0 {
		avoid = routing.AvoidHostsIn(g.topo)
		for i := range a.members {
			if i != a.idx && a.members[i].state == packet.GossipDead {
				avoid.AddHost(g.hosts[i].Node())
			}
		}
	}
	tbl := g.base.RebuildLazy(avoid, &g.stats.RoutesReused)
	g.epoch++
	epoch := g.epoch
	g.stats.EpochsPublished++
	if g.tracer != nil {
		g.emit(trace.EpochPublish, a.node, fmt.Sprintf("epoch=%d gossip dead=%d", epoch, dead))
	}
	host := a.host
	g.eng.Schedule(g.cfg.InstallDelay, func() {
		if host.Epoch() > epoch {
			return // a newer local install already landed
		}
		host.InstallTable(tbl, epoch)
		if g.tracer != nil {
			g.emit(trace.EpochInstall, host.Node(), fmt.Sprintf("epoch=%d", epoch))
		}
		g.noteInstall(a.idx, tbl)
	})
}

// ---------------------------------------------------------------
// Dissemination: digests out, claims in.

// buildDigest assembles the bounded digest for one outgoing packet:
// the agent's own alive claim first (the refutation channel), the
// probed target's non-alive state if any (so a suspected or buried
// target always hears its own verdict), then the least-spread queued
// updates up to DigestSize.
func (a *agent) buildDigest(target int) []packet.GossipEntry {
	g := a.g
	out := make([]packet.GossipEntry, 0, g.cfg.DigestSize)
	out = append(out, packet.GossipEntry{Node: int32(a.node), Incarnation: a.inc, State: packet.GossipAlive})
	if target >= 0 && target != a.idx {
		if m := a.members[target]; m.state != packet.GossipAlive {
			out = append(out, packet.GossipEntry{Node: int32(g.hosts[target].Node()), Incarnation: m.inc, State: m.state})
		}
	}
	if len(a.updates) > 0 {
		// Re-check isolation at build time, not just at enqueue time:
		// verdicts queued moments before the agent crossed its own
		// isolation threshold are just as much partition artifacts as
		// the ones queued after — and a stalled NIC can buffer built
		// digests for later delivery, so this is the last gate before
		// a stale obituary escapes.
		iso := a.isolatedView()
		sortUpdates(a.updates)
		for i := range a.updates {
			if len(out) >= g.cfg.DigestSize {
				break
			}
			u := &a.updates[i]
			if iso && u.entry.State != packet.GossipAlive {
				continue
			}
			if digestHas(out, u.entry.Node) {
				continue
			}
			out = append(out, u.entry)
			u.sends++
		}
		kept := a.updates[:0]
		for _, u := range a.updates {
			if u.sends < g.spreadTx {
				kept = append(kept, u)
			}
		}
		a.updates = kept
	}
	g.stats.DigestsSent++
	return out
}

// sortUpdates orders the queue least-spread first, oldest first among
// equals: by (sends, seq), a strict total order since seq is unique,
// so the order is the one any sort gives. The queue arrives nearly
// sorted (since the last digest, only the entries it carried gained a
// send, and enqueue appended or replaced a few), so an insertion pass
// moves few entries.
func sortUpdates(u []gossipUpdate) {
	for i := 1; i < len(u); i++ {
		x := u[i]
		j := i
		for ; j > 0 && (u[j-1].sends > x.sends || u[j-1].sends == x.sends && u[j-1].seq > x.seq); j-- {
			u[j] = u[j-1]
		}
		u[j] = x
	}
}

func digestHas(d []packet.GossipEntry, node int32) bool {
	for _, e := range d {
		if e.Node == node {
			return true
		}
	}
	return false
}

// enqueue replaces any queued update about the same member with the
// fresher claim, resetting its dissemination budget. Claims about
// self are not queued: the always-first self entry carries them.
func (a *agent) enqueue(e packet.GossipEntry) {
	if e.Node == int32(a.node) {
		return
	}
	// Lifeguard-style self-doubt: an agent holding a quorum of the
	// cluster non-alive is almost certainly the partitioned party
	// itself. Its verdicts stay local — spreading them after rejoining
	// would bury live hosts under stale obituaries.
	if e.State != packet.GossipAlive && a.isolatedView() {
		return
	}
	a.updateSeq++
	for i := range a.updates {
		if a.updates[i].entry.Node == e.Node {
			a.updates[i] = gossipUpdate{entry: e, seq: a.updateSeq}
			return
		}
	}
	a.updates = append(a.updates, gossipUpdate{entry: e, seq: a.updateSeq})
}

// isolatedView reports whether this agent's own connectivity is the
// likelier explanation for its verdicts: it currently holds at least
// a quorum of the cluster non-alive.
func (a *agent) isolatedView() bool {
	return a.nonAlive >= a.g.quorum
}

// setState moves member i to state s, keeping nonAlive counted.
func (a *agent) setState(i int, s packet.GossipState) {
	m := &a.members[i]
	switch {
	case m.state == packet.GossipAlive && s != packet.GossipAlive:
		a.nonAlive++
	case m.state != packet.GossipAlive && s == packet.GossipAlive:
		a.nonAlive--
	}
	m.state = s
}

// resetView wipes the verdicts an isolated agent accumulated. It has
// just learned — via a claim about itself — that the cluster
// considered IT the failure, so its own mass suspicions were
// artifacts of its own partition. Members revert to alive at their
// known incarnations, the poisoned update queue is dropped, and the
// base table is reinstalled; any member that is genuinely dead is
// re-detected by the normal probe cycle within a ring pass.
func (a *agent) resetView() {
	g := a.g
	for i := range a.members {
		if i == a.idx {
			continue
		}
		switch a.members[i].state {
		case packet.GossipSuspect:
			g.unvoteSuspect(i)
		case packet.GossipDead:
			g.unvoteDead(i)
		default:
			continue
		}
		a.setState(i, packet.GossipAlive)
		a.members[i].suspectAt = 0
	}
	a.updates = a.updates[:0]
	a.installTable()
}

// stampData is the gm.Host.GossipStamp hook: every DataGossipEvery-th
// outgoing data packet carries the digest while updates are pending.
func (a *agent) stampData() []byte {
	if len(a.updates) == 0 {
		return nil
	}
	a.dataCountdown--
	if a.dataCountdown > 0 {
		return nil
	}
	a.dataCountdown = a.g.cfg.DataGossipEvery
	a.g.stats.DataPiggybacks++
	return packet.AppendGossipDigest(nil, a.buildDigest(-1))
}

// applyDigest folds a received digest into this agent's view.
func (a *agent) applyDigest(entries []packet.GossipEntry, t units.Time) {
	for _, e := range entries {
		a.applyEntry(e, t)
	}
}

// applyEntry applies one claim under SWIM's incarnation-guarded
// precedence rules: alive{i} overrides suspect/dead{j} iff i > j;
// suspect{i} overrides alive{j} iff i >= j and suspect{j'} iff i > j';
// dead overrides everything at i >= j and is refuted only by a
// higher-incarnation alive claim.
func (a *agent) applyEntry(e packet.GossipEntry, now units.Time) {
	g := a.g
	idx, ok := g.idxOf[topology.NodeID(e.Node)]
	if !ok {
		return
	}
	if idx == a.idx {
		// A claim about this agent itself: a suspicion or obituary at
		// our current (or newer) incarnation is refuted by bumping the
		// incarnation — the new alive claim overrides the verdict
		// everywhere it spreads.
		if e.State != packet.GossipAlive && e.Incarnation >= a.inc {
			a.inc = e.Incarnation + 1
			g.stats.Refutations++
			if g.tracer != nil {
				g.emit(trace.Heartbeat, a.node, fmt.Sprintf("refute inc=%d", a.inc))
			}
			if a.isolatedView() {
				// The cluster held US dead while we hold a quorum of
				// the cluster dead: we were the partitioned one, and
				// every verdict accumulated during the partition is an
				// artifact of our own isolation.
				a.resetView()
			}
		}
		return
	}
	m := &a.members[idx]
	switch e.State {
	case packet.GossipAlive:
		switch {
		case e.Incarnation > m.inc:
			prev := m.state
			m.inc = e.Incarnation
			a.setState(idx, packet.GossipAlive)
			m.suspectAt = 0
			a.enqueue(e)
			if prev == packet.GossipDead {
				g.unvoteDead(idx)
				a.installTable()
			} else if prev == packet.GossipSuspect {
				g.unvoteSuspect(idx)
			}
		case m.state != packet.GossipAlive:
			// A member we hold suspect/dead claims life at a stale
			// incarnation: re-assert our verdict with a fresh budget so
			// the claimant hears it and can refute properly.
			a.enqueue(packet.GossipEntry{Node: e.Node, Incarnation: m.inc, State: m.state})
		}
	case packet.GossipSuspect:
		if m.state == packet.GossipDead {
			return
		}
		if (m.state == packet.GossipAlive && e.Incarnation >= m.inc) ||
			(m.state == packet.GossipSuspect && e.Incarnation > m.inc) {
			wasAlive := m.state == packet.GossipAlive
			m.inc = e.Incarnation
			a.setState(idx, packet.GossipSuspect)
			a.enqueue(e)
			if wasAlive {
				m.suspectAt = now
				g.voteSuspect(idx)
				a.armConfirm(idx, e.Incarnation, now)
			}
		}
	case packet.GossipDead:
		if m.state != packet.GossipDead && e.Incarnation >= m.inc {
			wasSuspect := m.state == packet.GossipSuspect
			m.inc = e.Incarnation
			a.setState(idx, packet.GossipDead)
			m.suspectAt = 0
			a.enqueue(e)
			if wasSuspect {
				g.unvoteSuspect(idx)
			}
			g.voteDead(idx)
			a.installTable()
		}
	}
}

// ---------------------------------------------------------------
// Mapping traffic addressed to this agent.

// handleMapping consumes probe replies, ping-reqs and ping-acks that
// belong to the gossip protocol; anything else (a local mapper's
// traffic) is left to the chained handler.
func (a *agent) handleMapping(pm packet.Mapping) bool {
	g := a.g
	switch pm.Kind {
	case packet.MappingPingReq:
		a.relayPing(pm)
		return true
	case packet.MappingReply, packet.MappingPingAck:
		if pc, ok := a.outstanding[pm.Nonce]; ok {
			delete(a.outstanding, pm.Nonce)
			if !pc.done {
				pc.done = true
				g.stats.ProbeReplies++
				g.noteAlive(pc.target)
			}
			return true
		}
		if rs, ok := a.relays[pm.Nonce]; ok && pm.Kind == packet.MappingReply {
			delete(a.relays, pm.Nonce)
			a.sendMapping(&packet.Packet{
				Route: append([]byte(nil), rs.originRoute...),
				Type:  packet.TypeMapping,
				Src:   int(a.node),
				Dst:   int(rs.origin),
				Payload: packet.EncodeMapping(packet.Mapping{
					Kind:   packet.MappingPingAck,
					Nonce:  rs.originNonce,
					Origin: int32(a.node),
					Target: rs.target,
					Digest: a.buildDigest(-1),
				}),
			})
			return true
		}
		return false
	default:
		return false
	}
}

// relayPing serves a peer's ping-req: probe the target on its behalf
// and ack over the carried return route if the target answers.
func (a *agent) relayPing(pm packet.Mapping) {
	g := a.g
	tIdx, ok := g.idxOf[topology.NodeID(pm.Target)]
	if !ok || tIdx == a.idx {
		return
	}
	var rb [packet.MaxRouteLen]byte
	fwd, ret := g.route(a.idx, tIdx, nil), g.route(tIdx, a.idx, rb[:0])
	if fwd == nil || ret == nil {
		return // cannot help; the origin's indirect stage times out
	}
	n := g.nextNonce()
	a.relays[n] = relayState{
		origin:      pm.Origin,
		originNonce: pm.Nonce,
		target:      pm.Target,
		originRoute: append([]byte(nil), pm.ReturnRoute...),
	}
	g.stats.ProbesSent++
	a.sendMapping(&packet.Packet{
		Route: fwd,
		Type:  packet.TypeMapping,
		Src:   int(a.node),
		Dst:   int(pm.Target),
		Payload: packet.EncodeMapping(packet.Mapping{
			Kind:        packet.MappingProbe,
			Nonce:       n,
			Origin:      int32(a.node),
			ReturnRoute: ret,
			Digest:      a.buildDigest(tIdx),
		}),
	})
	// Bound the relay ledger: a target that never answers must not
	// leak its entry.
	g.eng.Schedule(2*g.cfg.Timeout, func() { delete(a.relays, n) })
}
