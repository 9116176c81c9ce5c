// Package recovery implements the online self-healing subsystem that
// replaces the oracle route recomputation of the fault campaigns: a
// monitor host running a heartbeat/scout prober over the real
// simulated fabric, a per-host suspect/confirm failure detector whose
// latency is a measured quantity, and epoch-versioned route tables
// distributed host by host as simulation events — so hosts transiently
// disagree about the network, exactly as GM hosts do between mapper
// passes.
//
// The protocol, end to end:
//
//   - Every Period the monitor sends one mapping probe per host
//     (Spacing apart). Remote MCPs answer probes autonomously
//     (mcp.handleMapping), so a reply proves the host's NIC is alive
//     and both probe paths work. Probes are TypeMapping packets: they
//     share the scouts' fault model (fabric scout loss, bit errors,
//     stalls) rather than enjoying oracle delivery.
//   - A host that misses SuspectAfter consecutive probes is suspected;
//     at ConfirmAfter misses the monitor first tries to refute the
//     verdict with a verification probe over a disjoint alternate
//     path. An answer over the alternate path means the host is fine
//     and the primary path is broken: the path's inter-switch links
//     become suspects and routing republishes around them. Silence
//     confirms the host dead.
//   - Confirmation (or diagnosis, or resurrection) publishes a new
//     epoch: the route table is rebuilt incrementally around the
//     confirmed hosts and suspected links (dead in-transit hosts
//     degrade ITB routes to pure up*/down* sub-paths, see
//     routing.Table's Rebuild) and installed on each live host as its
//     own simulation event, InstallDelay + k*InstallStagger after the
//     publish. Between the first and last install the cluster runs
//     mixed epochs; in-transit hosts forward the packets stamped under
//     an older table over the sub-paths they carry.
//   - Confirmed hosts keep being probed. A reply from one resurrects
//     it: a new epoch restores its routes, and gm.Host.InstallTable
//     lifts dead-peer verdicts against it under a fresh incarnation.
//   - Link suspects are retired every RetireAfter rounds, giving
//     healed transient links a chance to carry minimal routes again.
//
// The monitor is a single point of observation (as one GM mapper host
// is); monitor death is out of scope for this study.
package recovery

import (
	"fmt"

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

// State is the failure detector's belief about one host.
type State int

const (
	// Alive hosts answered their recent probes.
	Alive State = iota
	// Suspected hosts missed SuspectAfter consecutive probes.
	Suspected
	// Confirmed hosts missed ConfirmAfter probes and failed (or could
	// not be given) the alternate-path verification.
	Confirmed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspected:
		return "suspected"
	case Confirmed:
		return "confirmed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the protocol.
type Config struct {
	// Period is the heartbeat round period.
	Period units.Time
	// Spacing staggers the probes within one round.
	Spacing units.Time
	// Timeout is how long the monitor waits for each probe's reply.
	Timeout units.Time
	// SuspectAfter is the consecutive-miss suspect threshold.
	SuspectAfter int
	// ConfirmAfter is the consecutive-miss confirm threshold (>=
	// SuspectAfter).
	ConfirmAfter int
	// Deadline stops probe rounds: no round starts after it. Required
	// — it is what bounds the simulation. Probes and installs already
	// in flight at the deadline still complete.
	Deadline units.Time
	// InstallDelay is the lag from an epoch publish to its first
	// per-host table install.
	InstallDelay units.Time
	// InstallStagger spaces consecutive hosts' installs.
	InstallStagger units.Time
	// RetireAfter retires the accumulated link suspects every this
	// many rounds (0 disables retirement).
	RetireAfter int

	// Gossip-mode fields (ignored by the monitor Manager).

	// IndirectProbes is how many ping-req relays a failed direct probe
	// fans out to before suspecting the target (SWIM's K).
	IndirectProbes int
	// SuspicionPeriods is how many Periods an unrefuted suspicion
	// survives before the suspecting agent confirms the death.
	SuspicionPeriods int
	// DigestSize bounds the membership-digest entries piggybacked on
	// one protocol packet (capped at packet.MaxGossipEntries).
	DigestSize int
	// DataGossipEvery stamps a digest onto every Nth outgoing data
	// packet per host — the budget on the data-plane piggyback channel.
	DataGossipEvery int
	// Seed drives each agent's deterministic peer-sampling shuffle.
	Seed int64
}

// DefaultConfig returns the calibrated protocol constants. The
// deadline must be supplied: it is run-specific.
func DefaultConfig(deadline units.Time) Config {
	return Config{
		Period:           150 * units.Microsecond,
		Spacing:          2 * units.Microsecond,
		Timeout:          60 * units.Microsecond,
		SuspectAfter:     2,
		ConfirmAfter:     4,
		Deadline:         deadline,
		InstallDelay:     20 * units.Microsecond,
		InstallStagger:   5 * units.Microsecond,
		RetireAfter:      10,
		IndirectProbes:   2,
		SuspicionPeriods: 3,
		DigestSize:       8,
		DataGossipEvery:  4,
	}
}

// Validate rejects nonsensical configurations instead of silently
// coercing them: a negative duration or count is a caller bug, not a
// request for the default. Zero keeps meaning "use the default" —
// withDefaults fills those after validation.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    units.Time
	}{
		{"Period", c.Period},
		{"Spacing", c.Spacing},
		{"Timeout", c.Timeout},
		{"InstallDelay", c.InstallDelay},
		{"InstallStagger", c.InstallStagger},
	} {
		if f.v < 0 {
			return fmt.Errorf("recovery: Config.%s is negative (%v); zero means default", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"SuspectAfter", c.SuspectAfter},
		{"ConfirmAfter", c.ConfirmAfter},
		{"RetireAfter", c.RetireAfter},
		{"IndirectProbes", c.IndirectProbes},
		{"SuspicionPeriods", c.SuspicionPeriods},
		{"DigestSize", c.DigestSize},
		{"DataGossipEvery", c.DataGossipEvery},
	} {
		if f.v < 0 {
			return fmt.Errorf("recovery: Config.%s is negative (%d); zero means default", f.name, f.v)
		}
	}
	return nil
}

// withDefaults fills zero fields from DefaultConfig. Negative values
// are rejected by Validate before this runs.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Deadline)
	if c.Period <= 0 {
		c.Period = d.Period
	}
	if c.Spacing < 0 {
		c.Spacing = d.Spacing
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = d.SuspectAfter
	}
	if c.ConfirmAfter < c.SuspectAfter {
		c.ConfirmAfter = max(c.SuspectAfter, d.ConfirmAfter)
	}
	if c.InstallDelay <= 0 {
		c.InstallDelay = d.InstallDelay
	}
	if c.InstallStagger <= 0 {
		c.InstallStagger = d.InstallStagger
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = d.IndirectProbes
	}
	if c.SuspicionPeriods <= 0 {
		c.SuspicionPeriods = d.SuspicionPeriods
	}
	if c.DigestSize <= 0 {
		c.DigestSize = d.DigestSize
	}
	if c.DigestSize > packet.MaxGossipEntries {
		c.DigestSize = packet.MaxGossipEntries
	}
	if c.DataGossipEvery <= 0 {
		c.DataGossipEvery = d.DataGossipEvery
	}
	return c
}

// Target is the cluster the manager heals.
type Target struct {
	Eng  *sim.Engine
	Topo *topology.Topology
	// Base is the initial (epoch-0) table the cluster started with.
	// Every published table is rebuilt from it, with its engine and
	// switch graph, and probe routes follow its orientation.
	Base *routing.Table
	// Hosts in topology order; installs walk this order.
	Hosts []*gm.Host
	// Monitor indexes Hosts: the host running the prober.
	Monitor int
	Tracer  *trace.Recorder
}

// Stats counts protocol activity. Detection and Convergence are in
// picoseconds (units.Time ticks).
type Stats struct {
	ProbesSent      uint64
	ProbeReplies    uint64
	ProbeMisses     uint64
	VerifyProbes    uint64
	HostsSuspected  uint64
	HostsConfirmed  uint64
	HostsRestored   uint64
	Resurrections   uint64
	EpochsPublished uint64
	LinksSuspected  uint64
	LinksRetired    uint64
	PeerReports     uint64
	// RoutesReused counts routes a rebuild adopted unchanged from the
	// table it was seeded from. The monitor counts a whole eager
	// rebuild at each publish. A gossip install's lazy table counts a
	// base route as it resolves it, at the install (busy and dead
	// conns) or at a later send, so the count follows the pairs the
	// hosts use rather than the table size.
	RoutesReused uint64
	// Gossip-mode counters (always zero under the monitor detector).
	Refutations    uint64 // incarnation bumps refuting own suspicion/obituary
	DigestsSent    uint64 // digests attached to outgoing protocol packets
	DataPiggybacks uint64 // digests stamped onto outgoing data packets
	// Detection samples first-miss -> confirmed per confirmed host.
	Detection *stats.Summary
	// Convergence samples trigger -> last install per published epoch.
	Convergence *stats.Summary
}

// hostState is the detector's record for one monitored host.
type hostState struct {
	idx         int // index into Target.Hosts
	node        topology.NodeID
	state       State
	misses      int
	firstMissAt units.Time
	verifying   bool
	// Probe routes (nil while unreachable under the link suspects).
	fwd, ret []byte
	// primLinks are the inter-switch links both probe paths cross —
	// the suspects if the host turns out alive via an alternate path.
	primLinks []int
}

type probeInfo struct {
	hs     *hostState // the probed target
	verify bool
}

// Manager runs the protocol over one cluster.
type Manager struct {
	cfg    Config
	eng    *sim.Engine
	topo   *topology.Topology
	table  *routing.Table
	finder *routing.Finder // probe routes
	hosts  []*gm.Host
	mon    int
	tracer *trace.Recorder

	sched   Scheduler
	targets []*hostState // every host but the monitor, in index order
	byNode  map[topology.NodeID]*hostState

	nonce        uint32
	outstanding  map[uint32]probeInfo
	epoch        uint32
	linkSuspects map[int]bool
	started      bool

	stats Stats
	gSkew *metrics.Gauge
}

// NewManager builds (but does not start) a manager.
func NewManager(cfg Config, tgt Target) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Deadline <= 0 {
		return nil, fmt.Errorf("recovery: Config.Deadline is required (it bounds the probe process)")
	}
	if tgt.Eng == nil || tgt.Topo == nil || tgt.Base == nil {
		return nil, fmt.Errorf("recovery: incomplete target")
	}
	if tgt.Monitor < 0 || tgt.Monitor >= len(tgt.Hosts) {
		return nil, fmt.Errorf("recovery: monitor index %d out of range", tgt.Monitor)
	}
	finder, err := routing.NewFinder(tgt.Topo, tgt.Base.Orientation())
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:          cfg.withDefaults(),
		eng:          tgt.Eng,
		topo:         tgt.Topo,
		table:        tgt.Base,
		finder:       finder,
		hosts:        tgt.Hosts,
		mon:          tgt.Monitor,
		tracer:       tgt.Tracer,
		byNode:       make(map[topology.NodeID]*hostState),
		outstanding:  make(map[uint32]probeInfo),
		linkSuspects: make(map[int]bool),
	}
	m.stats.Detection = &stats.Summary{}
	m.stats.Convergence = &stats.Summary{}
	for i, h := range tgt.Hosts {
		if i == tgt.Monitor {
			continue
		}
		hs := &hostState{idx: i, node: h.Node()}
		m.targets = append(m.targets, hs)
		m.byNode[h.Node()] = hs
	}
	return m, nil
}

// Start begins probing at the current simulation time. It chains the
// monitor MCP's OnMapping callback (a local mapper keeps seeing the
// packets the manager does not consume).
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	m.sched = Scheduler{
		Start:    m.eng.Now(),
		Period:   m.cfg.Period,
		Spacing:  m.cfg.Spacing,
		Deadline: m.cfg.Deadline,
	}
	mon := m.hosts[m.mon].MCP()
	prev := mon.OnMapping
	mon.OnMapping = func(pm packet.Mapping, t units.Time) {
		if !m.handleMapping(pm) && prev != nil {
			prev(pm, t)
		}
	}
	m.refreshProbeRoutes()
	if m.sched.Rounds() > 0 {
		m.eng.ScheduleAt(m.sched.RoundStart(0), func() { m.runRound(0) })
	}
}

// Accessors.

// Epoch returns the latest published epoch (0 before any publish).
func (m *Manager) Epoch() uint32 { return m.epoch }

// Table returns the latest published table (the base table before any
// publish).
func (m *Manager) Table() *routing.Table { return m.table }

// Stats returns a snapshot of the counters (summaries are shared).
func (m *Manager) Stats() Stats { return m.stats }

// StateOf returns the detector's belief about a host (the monitor is
// always Alive).
func (m *Manager) StateOf(node topology.NodeID) State {
	if hs := m.byNode[node]; hs != nil {
		return hs.state
	}
	return Alive
}

// Suspected counts hosts currently in the Suspected state.
func (m *Manager) Suspected() int { return m.count(Suspected) }

// Confirmed counts hosts currently confirmed dead.
func (m *Manager) Confirmed() int { return m.count(Confirmed) }

func (m *Manager) count(s State) int {
	n := 0
	for _, hs := range m.targets {
		if hs.state == s {
			n++
		}
	}
	return n
}

// ReportPeerDead accelerates detection with GM's own evidence: a
// dead-peer verdict against a host promotes it straight to Suspected
// and triggers an immediate out-of-cycle probe.
func (m *Manager) ReportPeerDead(peer topology.NodeID) {
	hs := m.byNode[peer]
	if hs == nil || !m.started {
		return
	}
	m.stats.PeerReports++
	if hs.state == Confirmed {
		return
	}
	if hs.firstMissAt == 0 {
		hs.firstMissAt = m.eng.Now()
	}
	if hs.misses < m.cfg.SuspectAfter {
		hs.misses = m.cfg.SuspectAfter
	}
	if hs.state == Alive {
		hs.state = Suspected
		m.stats.HostsSuspected++
		m.emit(trace.HostSuspected, hs.node, "peer-report")
	}
	m.sendProbe(hs, false, hs.fwd, hs.ret)
}

func (m *Manager) emit(k trace.Kind, node topology.NodeID, detail string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(trace.Event{At: m.eng.Now(), Kind: k, Node: node, Detail: detail})
}

// monNode returns the monitor's topology node.
func (m *Manager) monNode() topology.NodeID { return m.hosts[m.mon].Node() }

// ---------------------------------------------------------------
// Probing.

// runRound fires the probes of round r and chains round r+1.
func (m *Manager) runRound(r int) {
	if m.cfg.RetireAfter > 0 && r > 0 && r%m.cfg.RetireAfter == 0 && len(m.linkSuspects) > 0 {
		// Retire the link suspects: transient link faults heal, and a
		// republish lets healed links carry minimal routes again. If
		// one is still dead, the next misses re-suspect it.
		m.stats.LinksRetired += uint64(len(m.linkSuspects))
		clear(m.linkSuspects)
		m.refreshProbeRoutes()
		m.publish(m.eng.Now(), "retire")
	}
	for k, hs := range m.targets {
		hs := hs
		m.eng.ScheduleAt(m.sched.ProbeAt(r, k), func() {
			m.sendProbe(hs, false, hs.fwd, hs.ret)
		})
	}
	if next := r + 1; next < m.sched.Rounds() {
		m.eng.ScheduleAt(m.sched.RoundStart(next), func() { m.runRound(next) })
	}
}

// refreshProbeRoutes recomputes every target's probe routes around
// the current link suspects. Probe routes are pure up*/down* — a
// probe must not depend on an in-transit host that may itself be the
// thing being probed.
func (m *Manager) refreshProbeRoutes() {
	var avoid *routing.Avoid
	if len(m.linkSuspects) > 0 {
		avoid = routing.AvoidLinks()
		for id := range m.linkSuspects {
			avoid.AddLink(id)
		}
	}
	for _, hs := range m.targets {
		var routes [2]routing.Route
		hs.fwd, hs.ret, routes = m.probeRoutes(hs.node, avoid)
		hs.primLinks = nil
		if hs.fwd == nil {
			continue
		}
		for _, route := range routes {
			for _, tr := range route.LinkPath() {
				if m.topo.Node(tr.Link.A).Kind == topology.KindSwitch &&
					m.topo.Node(tr.Link.B).Kind == topology.KindSwitch {
					hs.primLinks = append(hs.primLinks, tr.Link.ID)
				}
			}
		}
	}
}

// probeRoutes returns the probe headers from the monitor to node and
// back under avoid, with the two routes they encode; the headers are
// nil unless both directions route.
func (m *Manager) probeRoutes(node topology.NodeID, avoid *routing.Avoid) (fwd, ret []byte, routes [2]routing.Route) {
	var hdrs [2][]byte
	for i, p := range [2][2]topology.NodeID{{m.monNode(), node}, {node, m.monNode()}} {
		r, err := m.finder.FindRoute(p[0], p[1], avoid)
		if err != nil {
			return nil, nil, routes
		}
		if hdrs[i], err = r.EncodeHeader(); err != nil {
			return nil, nil, routes
		}
		routes[i] = r
	}
	return hdrs[0], hdrs[1], routes
}

// sendProbe emits one probe (or verification probe) to a target. A
// nil route means the target is unreachable under the current link
// suspects, which counts as a miss outright.
func (m *Manager) sendProbe(hs *hostState, verify bool, fwd, ret []byte) {
	if fwd == nil {
		m.miss(hs, verify)
		return
	}
	m.nonce++
	n := m.nonce
	m.outstanding[n] = probeInfo{hs: hs, verify: verify}
	m.stats.ProbesSent++
	probe := &packet.Packet{
		Route: append([]byte(nil), fwd...),
		Type:  packet.TypeMapping,
		Src:   int(m.monNode()),
		Dst:   int(hs.node),
		Payload: packet.EncodeMapping(packet.Mapping{
			Kind:        packet.MappingProbe,
			Nonce:       n,
			Origin:      int32(m.monNode()),
			ReturnRoute: ret,
		}),
	}
	m.hosts[m.mon].MCP().SubmitSend(probe, nil, nil)
	m.eng.Schedule(m.cfg.Timeout, func() {
		if _, ok := m.outstanding[n]; !ok {
			return // answered in time
		}
		delete(m.outstanding, n)
		m.miss(hs, verify)
	})
}

// handleMapping consumes probe replies addressed to the manager;
// anything else (a local mapper's traffic) is left to the chained
// handler.
func (m *Manager) handleMapping(pm packet.Mapping) bool {
	if pm.Kind != packet.MappingReply {
		return false
	}
	pi, ok := m.outstanding[pm.Nonce]
	if !ok {
		return false
	}
	delete(m.outstanding, pm.Nonce)
	m.stats.ProbeReplies++
	hs := pi.hs
	if pi.verify {
		hs.verifying = false
		if hs.state == Confirmed {
			m.resurrect(hs)
			return true
		}
		// The host answered over the alternate path: it is alive and
		// the primary probe path is broken. Suspect that path's
		// inter-switch links and route around them.
		m.suspectLinks(hs)
		return true
	}
	switch hs.state {
	case Confirmed:
		m.resurrect(hs)
	case Suspected:
		hs.state = Alive
		hs.misses, hs.firstMissAt = 0, 0
		m.stats.HostsRestored++
		m.emit(trace.HostRestored, hs.node, "reply")
	default:
		hs.misses, hs.firstMissAt = 0, 0
	}
	return true
}

// miss records one probe miss and walks the suspect/confirm ladder.
func (m *Manager) miss(hs *hostState, verify bool) {
	m.stats.ProbeMisses++
	if verify {
		hs.verifying = false
		if hs.state != Confirmed {
			m.confirm(hs)
		}
		return
	}
	if hs.state == Confirmed {
		return // still dead; probing continues for resurrection
	}
	hs.misses++
	if hs.firstMissAt == 0 {
		hs.firstMissAt = m.eng.Now()
	}
	if hs.state == Alive && hs.misses >= m.cfg.SuspectAfter {
		hs.state = Suspected
		m.stats.HostsSuspected++
		if m.tracer != nil {
			m.emit(trace.HostSuspected, hs.node, fmt.Sprintf("misses=%d", hs.misses))
		}
	}
	if hs.state == Suspected && hs.misses >= m.cfg.ConfirmAfter && !hs.verifying {
		m.verifyOrConfirm(hs)
	}
}

// verifyOrConfirm tries to refute a pending confirmation over an
// alternate path before giving the dead verdict.
func (m *Manager) verifyOrConfirm(hs *hostState) {
	fwd, ret := m.altProbeRoute(hs)
	if fwd == nil {
		m.confirm(hs)
		return
	}
	hs.verifying = true
	m.stats.VerifyProbes++
	m.emit(trace.Heartbeat, hs.node, "verify")
	m.sendProbe(hs, true, fwd, ret)
}

// altProbeRoute searches probe routes that avoid the primary probe
// path's inter-switch links (and the standing suspects). nil when no
// disjoint path exists.
func (m *Manager) altProbeRoute(hs *hostState) (fwd, ret []byte) {
	avoid := routing.AvoidLinks()
	for id := range m.linkSuspects {
		avoid.AddLink(id)
	}
	for _, id := range hs.primLinks {
		avoid.AddLink(id)
	}
	fwd, ret, _ = m.probeRoutes(hs.node, avoid)
	return fwd, ret
}

// confirm gives the dead verdict and publishes an epoch without the
// host.
func (m *Manager) confirm(hs *hostState) {
	hs.state = Confirmed
	m.stats.HostsConfirmed++
	m.stats.Detection.Add(float64(m.eng.Now() - hs.firstMissAt))
	if m.tracer != nil {
		m.emit(trace.HostConfirmed, hs.node, fmt.Sprintf("after=%v", m.eng.Now()-hs.firstMissAt))
	}
	m.publish(hs.firstMissAt, "confirm")
}

// resurrect reverses a dead verdict after a confirmed host answered a
// probe, and publishes an epoch that restores its routes.
func (m *Manager) resurrect(hs *hostState) {
	hs.state = Alive
	hs.misses, hs.firstMissAt = 0, 0
	m.stats.Resurrections++
	m.emit(trace.HostRestored, hs.node, "resurrect")
	m.publish(m.eng.Now(), "resurrect")
}

// suspectLinks blames the primary probe path for a verified-alive
// host's misses, restores the host, and publishes an epoch routed
// around the suspect links.
func (m *Manager) suspectLinks(hs *hostState) {
	trigger := hs.firstMissAt
	if trigger == 0 {
		trigger = m.eng.Now()
	}
	added := 0
	for _, id := range hs.primLinks {
		if !m.linkSuspects[id] {
			m.linkSuspects[id] = true
			added++
		}
	}
	m.stats.LinksSuspected += uint64(added)
	if hs.state == Suspected {
		m.stats.HostsRestored++
	}
	hs.state = Alive
	hs.misses, hs.firstMissAt = 0, 0
	if m.tracer != nil {
		m.emit(trace.HostRestored, hs.node, fmt.Sprintf("link-fault links=%d", added))
	}
	m.refreshProbeRoutes()
	if added > 0 {
		m.publish(trigger, "link-suspect")
	}
}

// ---------------------------------------------------------------
// Epoch publication.

// buildAvoid assembles the exclusion set from the current verdicts:
// the confirmed hosts and the suspect links. It is nil when there are
// none, so a fault-free republish routes as the base build did.
func (m *Manager) buildAvoid() *routing.Avoid {
	a := routing.AvoidLinks()
	verdicts := len(m.linkSuspects)
	for id := range m.linkSuspects {
		a.AddLink(id)
	}
	for _, hs := range m.targets {
		if hs.state == Confirmed {
			a.AddHost(hs.node)
			verdicts++
		}
	}
	if verdicts == 0 {
		return nil
	}
	return a
}

// publish rebuilds the table under a new epoch and distributes it
// host by host. trigger is when the causing condition was first
// observed; the convergence summary samples trigger -> last install.
func (m *Manager) publish(trigger units.Time, why string) {
	tbl, reused := m.table.Rebuild(m.buildAvoid())
	m.epoch++
	epoch := m.epoch
	m.table = tbl
	m.stats.RoutesReused += uint64(reused)
	m.stats.EpochsPublished++
	if m.tracer != nil {
		m.emit(trace.EpochPublish, m.monNode(), fmt.Sprintf("epoch=%d %s reused=%d", epoch, why, reused))
	}
	if trigger == 0 {
		trigger = m.eng.Now()
	}
	live := make([]*gm.Host, 0, len(m.hosts))
	for _, h := range m.hosts {
		if hs := m.byNode[h.Node()]; hs != nil && hs.state == Confirmed {
			continue
		}
		live = append(live, h)
	}
	now := m.eng.Now()
	for k, h := range live {
		h := h
		last := k == len(live)-1
		m.eng.ScheduleAt(now+m.cfg.InstallDelay+units.Time(k)*m.cfg.InstallStagger, func() {
			if h.Epoch() > epoch {
				// A newer epoch already reached this host; a stale
				// staggered install must not regress its table.
				return
			}
			if m.gSkew != nil {
				m.gSkew.SetMax(float64(epoch - h.Epoch()))
			}
			h.InstallTable(tbl, epoch)
			if m.tracer != nil {
				m.emit(trace.EpochInstall, h.Node(), fmt.Sprintf("epoch=%d", epoch))
			}
			if last {
				m.stats.Convergence.Add(float64(m.eng.Now() - trigger))
			}
		})
	}
}

// ---------------------------------------------------------------
// Metrics.

// SetMetrics attaches live gauges (epoch skew high-water).
func (m *Manager) SetMetrics(r *metrics.Registry) {
	m.gSkew = r.Gauge("recovery.peak_epoch_skew")
}

// PublishMetrics dumps the protocol counters into r under
// recovery.*. Zero counters are skipped to keep snapshots compact.
func (m *Manager) PublishMetrics(r *metrics.Registry) {
	m.stats.publish(r)
}

// publish dumps the counters into r under recovery.*, shared by both
// detectors. Zero counters are skipped to keep snapshots compact (and
// to keep monitor-mode snapshots byte-identical to their pre-gossip
// form).
func (s Stats) publish(r *metrics.Registry) {
	if r == nil {
		return
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"probes_sent", s.ProbesSent},
		{"probe_replies", s.ProbeReplies},
		{"probe_misses", s.ProbeMisses},
		{"verify_probes", s.VerifyProbes},
		{"hosts_suspected", s.HostsSuspected},
		{"hosts_confirmed", s.HostsConfirmed},
		{"hosts_restored", s.HostsRestored},
		{"resurrections", s.Resurrections},
		{"epochs_published", s.EpochsPublished},
		{"links_suspected", s.LinksSuspected},
		{"links_retired", s.LinksRetired},
		{"peer_reports", s.PeerReports},
		{"routes_reused", s.RoutesReused},
		{"refutations", s.Refutations},
		{"digests_sent", s.DigestsSent},
		{"data_piggybacks", s.DataPiggybacks},
	} {
		if c.v != 0 {
			r.Counter("recovery." + c.name).Add(c.v)
		}
	}
	if s.Detection.N() > 0 {
		r.Gauge("recovery.detection_mean_us").Set(s.Detection.Mean() / float64(units.Microsecond))
	}
	if s.Convergence.N() > 0 {
		r.Gauge("recovery.convergence_mean_us").Set(s.Convergence.Mean() / float64(units.Microsecond))
	}
}
