package recovery

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// gossipRig is the Figure-1 cluster with the decentralized detector
// attached — the same fabric the monitor rig uses, but with one
// protocol agent per host and no monitor.
type gossipRig struct {
	eng   *sim.Engine
	topo  *topology.Topology
	f     topology.Figure1Nodes
	hosts []*gm.Host
	gsp   *Gossip
	tr    *trace.Recorder
}

func newGossipRig(t *testing.T, cfg Config) *gossipRig {
	t.Helper()
	topo, f := topology.Figure1()
	r := newGossipRigOn(t, cfg, topo)
	r.f = f
	return r
}

// newGossipRigOn attaches the detector to a cluster on topo.
func newGossipRigOn(t *testing.T, cfg Config, topo *topology.Topology) *gossipRig {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*gm.Host
	for _, h := range topo.Hosts() {
		m := mcp.New(net, h, mcp.DefaultConfig(mcp.ITB))
		hosts = append(hosts, gm.NewHost(eng, m, tbl, gm.DefaultParams()))
	}
	tr := trace.NewRecorder(8192)
	gsp, err := NewGossip(cfg, Target{
		Eng:    eng,
		Topo:   topo,
		Base:   tbl,
		Hosts:  hosts,
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &gossipRig{eng: eng, topo: topo, hosts: hosts, gsp: gsp, tr: tr}
}

func (r *gossipRig) idx(node topology.NodeID) int {
	for i, h := range r.hosts {
		if h.Node() == node {
			return i
		}
	}
	return -1
}

// kill stalls a host's NIC at the given time (probes go unanswered).
func (r *gossipRig) kill(vi int, at units.Time) {
	r.eng.ScheduleAt(at, func() { r.hosts[vi].MCP().SetStalled(true) })
}

func (r *gossipRig) revive(vi int, at units.Time) {
	r.eng.ScheduleAt(at, func() { r.hosts[vi].MCP().SetStalled(false) })
}

// checkConverged asserts every live host's installed table avoids the
// victim — the decentralized analogue of the monitor's single
// published table.
func (r *gossipRig) checkConverged(t *testing.T, victim topology.NodeID) {
	t.Helper()
	vi := r.idx(victim)
	for i, h := range r.hosts {
		if i == vi {
			continue
		}
		if h.Epoch() == 0 {
			t.Errorf("host %d never installed an avoiding table", i)
			continue
		}
		tbl := h.Table()
		for _, dst := range r.topo.Hosts() {
			if dst == h.Node() {
				continue
			}
			route, ok := tbl.Lookup(h.Node(), dst)
			if !ok {
				continue
			}
			if dst == victim {
				t.Errorf("host %d still routes to the dead host", i)
			}
			for _, itb := range route.ITBHosts() {
				if itb == victim {
					t.Errorf("host %d route to %d still ejects through the dead host", i, dst)
				}
			}
		}
	}
}

// TestGossipDetectionAndConvergence is the decentralized counterpart
// of the monitor's flagship test: kill one host and check the full
// suspect -> confirm -> peer-to-peer rebuild pipeline, with every
// live host converging on routes that avoid the victim.
func TestGossipDetectionAndConvergence(t *testing.T) {
	cfg := DefaultConfig(4000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	victim := r.f.Hosts[3]
	r.kill(r.idx(victim), 100*units.Microsecond)
	r.gsp.Start()
	r.eng.Run()

	if got := r.gsp.StateOf(victim); got != Confirmed {
		t.Fatalf("victim state = %v, want Confirmed", got)
	}
	st := r.gsp.Stats()
	if st.HostsSuspected == 0 || st.HostsConfirmed != 1 {
		t.Errorf("suspected=%d confirmed=%d, want >0 and 1", st.HostsSuspected, st.HostsConfirmed)
	}
	if st.ProbesSent == 0 || st.ProbeReplies == 0 || st.ProbeMisses == 0 {
		t.Errorf("probe counters: %+v", st)
	}
	if st.VerifyProbes == 0 {
		t.Error("no ping-reqs sent: the indirect stage never ran")
	}
	if st.DigestsSent == 0 {
		t.Error("no digests sent")
	}
	if st.Detection.N() != 1 {
		t.Fatalf("detection samples = %d, want 1", st.Detection.N())
	}
	if d := units.Time(st.Detection.Mean()); d <= 0 || d > cfg.Deadline {
		t.Errorf("detection latency = %v, want finite and positive", d)
	}
	if st.EpochsPublished == 0 {
		t.Fatal("no epochs published")
	}
	if st.Convergence.N() == 0 {
		t.Error("no convergence samples")
	}
	r.checkConverged(t, victim)
	// Installed tables resolve lazily, so reuse is counted as pairs
	// are looked up — checkConverged's sweep above forces them.
	if r.gsp.Stats().RoutesReused == 0 {
		t.Error("no routes reused across the rebuilds")
	}
	for _, k := range []trace.Kind{trace.HostSuspected, trace.HostConfirmed, trace.EpochPublish, trace.EpochInstall} {
		if len(r.tr.OfKind(k)) == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
}

// TestGossipSurvivesFormerMonitorDeath kills host 0 — the host the
// centralized design elects as monitor, whose death would blind it
// completely. Under gossip it is one probing vantage point among N:
// detection and convergence must complete in full. This is the
// no-single-point-of-failure property the decentralization buys.
func TestGossipSurvivesFormerMonitorDeath(t *testing.T) {
	cfg := DefaultConfig(4000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	victim := r.f.Hosts[0]
	r.kill(r.idx(victim), 100*units.Microsecond)
	r.gsp.Start()
	r.eng.Run()

	if got := r.gsp.StateOf(victim); got != Confirmed {
		t.Fatalf("former monitor host state = %v, want Confirmed", got)
	}
	st := r.gsp.Stats()
	if st.HostsConfirmed != 1 {
		t.Fatalf("confirmed = %d, want 1", st.HostsConfirmed)
	}
	if st.Detection.N() != 1 || st.Convergence.N() == 0 {
		t.Fatalf("detection/convergence samples = %d/%d, want 1/>0", st.Detection.N(), st.Convergence.N())
	}
	r.checkConverged(t, victim)
}

// TestGossipEveryVictimDetected kills each host in turn (fresh world
// each time): no host's death is special, including every possible
// "coordinator" choice.
func TestGossipEveryVictimDetected(t *testing.T) {
	for vi := 0; vi < 7; vi++ {
		vi := vi
		t.Run(fmt.Sprintf("victim%d", vi), func(t *testing.T) {
			cfg := DefaultConfig(4000 * units.Microsecond)
			r := newGossipRig(t, cfg)
			victim := r.hosts[vi].Node()
			r.kill(vi, 100*units.Microsecond)
			r.gsp.Start()
			r.eng.Run()
			if got := r.gsp.StateOf(victim); got != Confirmed {
				t.Fatalf("victim %d state = %v, want Confirmed", vi, got)
			}
			r.checkConverged(t, victim)
		})
	}
}

// TestGossipResurrection revives the victim after its obituary has
// spread: the next probe digest delivers the verdict to the revived
// host, it bumps its incarnation, and the higher-incarnation alive
// claim resurrects it everywhere.
func TestGossipResurrection(t *testing.T) {
	cfg := DefaultConfig(6000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	victim := r.f.Hosts[3]
	vi := r.idx(victim)
	r.kill(vi, 100*units.Microsecond)
	r.revive(vi, 2500*units.Microsecond)
	r.gsp.Start()
	r.eng.Run()

	st := r.gsp.Stats()
	if st.HostsConfirmed != 1 {
		t.Fatalf("confirmed = %d, want 1 (the host must die first)", st.HostsConfirmed)
	}
	if got := r.gsp.StateOf(victim); got != Alive {
		t.Fatalf("victim state = %v after revival, want Alive", got)
	}
	if st.Resurrections == 0 {
		t.Error("no resurrections recorded")
	}
	if st.Refutations == 0 {
		t.Error("no incarnation bumps: the refutation channel never fired")
	}
	if got := r.gsp.IncarnationOf(victim); got == 0 {
		t.Error("victim never bumped its incarnation")
	}
	// Every live host rolled its routes forward again: nobody is left
	// avoiding the revived host.
	for i, h := range r.hosts {
		if _, ok := h.Table().Lookup(h.Node(), victim); i != vi && !ok {
			t.Errorf("host %d still has no route to the resurrected host", i)
		}
	}
}

// TestGossipFlapStorm pushes the victim down, up and down again with
// the first outage inside one suspicion window: the revival must
// refute the first suspicion (no false confirm), and the second,
// permanent outage must still confirm. This is the flap pattern that
// makes non-refuting detectors oscillate.
func TestGossipFlapStorm(t *testing.T) {
	cfg := DefaultConfig(6000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	victim := r.f.Hosts[4]
	vi := r.idx(victim)
	// Down long enough to be suspected (miss + indirect stage), up
	// before the suspicion window (SuspicionPeriods * Period = 450us)
	// expires, then down for good.
	r.kill(vi, 100*units.Microsecond)
	r.revive(vi, 450*units.Microsecond)
	r.kill(vi, 1600*units.Microsecond)
	r.gsp.Start()
	r.eng.Run()

	st := r.gsp.Stats()
	if got := r.gsp.StateOf(victim); got != Confirmed {
		t.Fatalf("victim state = %v after final outage, want Confirmed", got)
	}
	if st.HostsSuspected < 2 {
		t.Errorf("suspected transitions = %d, want >= 2 (one per outage)", st.HostsSuspected)
	}
	if st.HostsRestored == 0 && st.Resurrections == 0 {
		t.Error("first flap was never cleared: no restore or resurrection")
	}
	if st.Refutations == 0 {
		t.Error("revival never refuted the suspicion")
	}
	if st.HostsConfirmed != 1 {
		t.Errorf("confirmed = %d, want exactly 1 (the final outage only)", st.HostsConfirmed)
	}
	r.checkConverged(t, victim)
}

// TestGossipPeerWitness feeds a GM-style dead-peer verdict through
// the witness interface: the witnessing host's agent suspects
// immediately, well before its probe ring would reach the victim.
func TestGossipPeerWitness(t *testing.T) {
	cfg := DefaultConfig(4000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	victim := r.f.Hosts[2]
	witness := r.f.Hosts[5]
	vi := r.idx(victim)
	r.kill(vi, 50*units.Microsecond)
	r.eng.ScheduleAt(60*units.Microsecond, func() { r.gsp.ReportPeerDeadFrom(witness, victim) })
	r.gsp.Start()
	r.eng.Run()

	st := r.gsp.Stats()
	if st.PeerReports != 1 {
		t.Fatalf("peer reports = %d, want 1", st.PeerReports)
	}
	if r.gsp.StateOf(victim) != Confirmed {
		t.Fatal("victim not confirmed after witness report + misses")
	}
	ev := r.tr.OfKind(trace.HostSuspected)
	if len(ev) == 0 {
		t.Fatal("no HostSuspected trace event")
	}
	if ev[0].At >= cfg.Period {
		t.Errorf("suspected at %v, want before the first full round (%v)", ev[0].At, cfg.Period)
	}
}

// TestGossipHealthyClusterStaysQuiet: a fault-free cluster must
// produce zero verdicts and zero installs — and every direct probe
// must be answered.
func TestGossipHealthyClusterStaysQuiet(t *testing.T) {
	cfg := DefaultConfig(2000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	r.gsp.Start()
	r.eng.Run()
	st := r.gsp.Stats()
	if st.ProbesSent == 0 || st.ProbesSent != st.ProbeReplies {
		t.Errorf("sent=%d replies=%d, want all probes answered", st.ProbesSent, st.ProbeReplies)
	}
	if st.HostsSuspected != 0 || st.EpochsPublished != 0 || st.ProbeMisses != 0 {
		t.Errorf("healthy cluster produced verdicts: %+v", st)
	}
	for i, h := range r.hosts {
		if h.Epoch() != 0 {
			t.Errorf("host %d installed an epoch in a healthy cluster", i)
		}
	}
}

// TestGossipApplyEntryPrecedence pins the SWIM precedence lattice at
// the unit level: which claim overrides which, guarded by
// incarnation numbers.
func TestGossipApplyEntryPrecedence(t *testing.T) {
	cfg := DefaultConfig(1000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	a := r.gsp.agents[0]
	peer := int32(r.hosts[3].Node())
	pi := 3
	set := func(s packet.GossipState, inc uint32) {
		a.members[pi] = member{state: s, inc: inc}
	}
	entry := func(s packet.GossipState, inc uint32) packet.GossipEntry {
		return packet.GossipEntry{Node: peer, Incarnation: inc, State: s}
	}
	cases := []struct {
		name      string
		pre       func()
		in        packet.GossipEntry
		wantState packet.GossipState
		wantInc   uint32
	}{
		{"suspect overrides alive at same inc", func() { set(packet.GossipAlive, 5) }, entry(packet.GossipSuspect, 5), packet.GossipSuspect, 5},
		{"suspect ignores alive at lower inc", func() { set(packet.GossipAlive, 5) }, entry(packet.GossipSuspect, 4), packet.GossipAlive, 5},
		{"suspect needs higher inc vs suspect", func() { set(packet.GossipSuspect, 5) }, entry(packet.GossipSuspect, 5), packet.GossipSuspect, 5},
		{"higher suspect refreshes suspect", func() { set(packet.GossipSuspect, 5) }, entry(packet.GossipSuspect, 6), packet.GossipSuspect, 6},
		{"suspect never downgrades dead", func() { set(packet.GossipDead, 5) }, entry(packet.GossipSuspect, 9), packet.GossipDead, 5},
		{"alive refutes suspect at higher inc", func() { set(packet.GossipSuspect, 5) }, entry(packet.GossipAlive, 6), packet.GossipAlive, 6},
		{"alive ignores suspect at same inc", func() { set(packet.GossipSuspect, 5) }, entry(packet.GossipAlive, 5), packet.GossipSuspect, 5},
		{"alive resurrects dead at higher inc", func() { set(packet.GossipDead, 5) }, entry(packet.GossipAlive, 6), packet.GossipAlive, 6},
		{"alive cannot resurrect at same inc", func() { set(packet.GossipDead, 5) }, entry(packet.GossipAlive, 5), packet.GossipDead, 5},
		{"dead overrides alive at same inc", func() { set(packet.GossipAlive, 5) }, entry(packet.GossipDead, 5), packet.GossipDead, 5},
		{"dead overrides suspect at same inc", func() { set(packet.GossipSuspect, 5) }, entry(packet.GossipDead, 5), packet.GossipDead, 5},
		{"dead ignores lower inc", func() { set(packet.GossipAlive, 5) }, entry(packet.GossipDead, 4), packet.GossipAlive, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.pre()
			a.applyEntry(tc.in, r.eng.Now())
			m := a.members[pi]
			if m.state != tc.wantState || m.inc != tc.wantInc {
				t.Fatalf("after %v: state=%v inc=%d, want %v/%d", tc.in, m.state, m.inc, tc.wantState, tc.wantInc)
			}
		})
	}
}

// TestGossipSelfRefutation: an agent hearing a suspicion about itself
// at its current incarnation must bump past it; stale claims about
// old incarnations are ignored.
func TestGossipSelfRefutation(t *testing.T) {
	cfg := DefaultConfig(1000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	a := r.gsp.agents[2]
	self := int32(a.node)
	a.applyEntry(packet.GossipEntry{Node: self, Incarnation: 0, State: packet.GossipSuspect}, 0)
	if a.inc != 1 {
		t.Fatalf("inc = %d after suspect@0, want 1", a.inc)
	}
	a.applyEntry(packet.GossipEntry{Node: self, Incarnation: 0, State: packet.GossipDead}, 0)
	if a.inc != 1 {
		t.Fatalf("inc = %d after stale dead@0, want still 1", a.inc)
	}
	a.applyEntry(packet.GossipEntry{Node: self, Incarnation: 3, State: packet.GossipDead}, 0)
	if a.inc != 4 {
		t.Fatalf("inc = %d after dead@3, want 4", a.inc)
	}
	if st := r.gsp.Stats(); st.Refutations != 2 {
		t.Fatalf("refutations = %d, want 2", st.Refutations)
	}
}

// TestGossipDataPiggyback: the budgeted data-packet channel stamps
// every DataGossipEvery-th packet while updates are pending, and
// stays silent when the queue is dry.
func TestGossipDataPiggyback(t *testing.T) {
	cfg := DefaultConfig(1000 * units.Microsecond)
	cfg.DataGossipEvery = 3
	r := newGossipRig(t, cfg)
	r.gsp.Start()
	a := r.gsp.agents[1]
	if got := a.stampData(); got != nil {
		t.Fatalf("stamp with no pending updates = %v, want nil", got)
	}
	a.enqueue(packet.GossipEntry{Node: int32(r.hosts[3].Node()), Incarnation: 0, State: packet.GossipSuspect})
	var stamped int
	for i := 0; i < 9; i++ {
		if b := a.stampData(); b != nil {
			stamped++
			entries, rest, err := packet.ParseGossipDigest(b)
			if err != nil || len(rest) != 0 {
				t.Fatalf("stamped digest malformed: %v (rest %d)", err, len(rest))
			}
			if len(entries) == 0 {
				t.Fatal("stamped digest empty")
			}
		}
	}
	if stamped != 3 {
		t.Fatalf("stamped %d of 9 packets with every=3, want 3", stamped)
	}
	if st := r.gsp.Stats(); st.DataPiggybacks != 3 {
		t.Fatalf("DataPiggybacks = %d, want 3", st.DataPiggybacks)
	}
}

// gossipScenario runs the death+resurrection churn and returns a
// signature over every observable.
func gossipScenario(t *testing.T) string {
	cfg := DefaultConfig(6000 * units.Microsecond)
	r := newGossipRig(t, cfg)
	vi := r.idx(r.f.Hosts[3])
	r.kill(vi, 100*units.Microsecond)
	r.revive(vi, 2500*units.Microsecond)
	r.kill(r.idx(r.f.Hosts[6]), 3000*units.Microsecond)
	r.gsp.Start()
	r.eng.Run()
	st := r.gsp.Stats()
	return fmt.Sprintf("probes=%d/%d/%d verify=%d verdicts=%d/%d/%d/%d refute=%d digests=%d epochs=%d reused=%d det=%v conv=%v now=%d trace=%d",
		st.ProbesSent, st.ProbeReplies, st.ProbeMisses, st.VerifyProbes,
		st.HostsSuspected, st.HostsConfirmed, st.HostsRestored, st.Resurrections,
		st.Refutations, st.DigestsSent,
		st.EpochsPublished, st.RoutesReused,
		st.Detection.Mean(), st.Convergence.Mean(),
		r.eng.Now(), r.tr.Total())
}

// TestGossipScenarioDeterministic runs the same churn twice in fresh
// worlds and demands identical observables — the agents' RNGs, the
// update queues and the episode accounting must all be
// schedule-independent.
func TestGossipScenarioDeterministic(t *testing.T) {
	a, b := gossipScenario(t), gossipScenario(t)
	if a != b {
		t.Fatalf("two runs diverged:\n  %s\n  %s", a, b)
	}
}

// TestGossipInstallsHistoryIndependent pins that an agent's installed
// table depends on its dead set alone, not on the order it confirmed
// it in. Two agents bury the same two hosts in opposite orders. Every
// host pair must then route in both installed tables as it does in a
// fresh lazy rebuild of the base table around those two hosts.
func TestGossipInstallsHistoryIndependent(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	r := newGossipRigOn(t, DefaultConfig(4000*units.Microsecond), topo)
	base := r.hosts[0].Table()
	// Bury the two busiest in-transit hosts, so the rebuild searches
	// replacement routes rather than only adopting base routes.
	load := make([]int, len(r.hosts))
	for _, rt := range base.Routes() {
		for _, h := range rt.ITBHosts() {
			load[r.idx(h)]++
		}
	}
	x, y := -1, -1
	for i, n := range load {
		switch {
		case x < 0 || n > load[x]:
			x, y = i, x
		case y < 0 || n > load[y]:
			y = i
		}
	}
	if load[y] == 0 {
		t.Fatalf("base table ejects through fewer than two hosts: %v", load)
	}
	var agents []*agent
	for _, a := range r.gsp.agents {
		if a.idx != x && a.idx != y && len(agents) < 2 {
			agents = append(agents, a)
		}
	}
	for i, order := range [][2]int{{x, y}, {y, x}} {
		for _, v := range order {
			agents[i].suspect(v)
			agents[i].confirmDead(v)
		}
	}
	r.eng.Run()

	avoid := routing.AvoidLinks()
	avoid.AddHost(r.hosts[x].Node())
	avoid.AddHost(r.hosts[y].Node())
	want := base.RebuildLazy(avoid, nil)
	for _, a := range agents {
		if a.host.Epoch() == 0 {
			t.Fatalf("agent %d installed no table", a.idx)
		}
	}
	searched := 0
	for _, src := range r.topo.Hosts() {
		for _, dst := range r.topo.Hosts() {
			if src == dst {
				continue
			}
			w, wok := want.Lookup(src, dst)
			var whdr []byte
			if wok {
				whdr, _ = w.EncodeHeader()
				if b, _ := base.Lookup(src, dst); b != w {
					searched++
				}
			}
			for _, a := range agents {
				g, ok := a.host.Table().Lookup(src, dst)
				var ghdr []byte
				if ok {
					ghdr, _ = g.EncodeHeader()
				}
				if ok != wok || string(ghdr) != string(whdr) {
					t.Errorf("agent %d routes %d->%d as %x (ok %v), a fresh rebuild as %x (ok %v)",
						a.idx, src, dst, ghdr, ok, whdr, wok)
				}
			}
		}
	}
	if searched == 0 {
		t.Error("every live pair kept its base route: the test exercises no search")
	}
}

// TestGossipNonAliveCount runs a churn campaign on the golden churn
// network (8 switches, seed 3) and checks, at every epoch publish and
// every install, each agent's non-alive count against a recount of
// its members, and isolatedView against the quorum test on that
// recount. The stalled hosts' own agents lose every peer, so the
// campaign drives agents across the quorum and back.
func TestGossipNonAliveCount(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 12000 * units.Microsecond
	r := newGossipRigOn(t, DefaultConfig(horizon), topo)
	rng := rand.New(rand.NewSource(3))
	for ev := 0; ev < 6; ev++ {
		vi := rng.Intn(len(r.hosts))
		at := units.Time(100+rng.Intn(5000)) * units.Microsecond
		r.kill(vi, at)
		r.revive(vi, at+units.Time(3000+rng.Intn(3000))*units.Microsecond)
	}
	r.gsp.Start()
	installs := func() (n uint64) {
		for _, h := range r.hosts {
			n += uint64(h.Epoch())
		}
		return n
	}
	checks, isolated := 0, 0
	published, installed := r.gsp.stats.EpochsPublished, installs()
	for r.eng.Step() {
		p, i := r.gsp.stats.EpochsPublished, installs()
		if p == published && i == installed {
			continue
		}
		published, installed = p, i
		checks++
		for _, a := range r.gsp.agents {
			n := 0
			for j, m := range a.members {
				if j != a.idx && m.state != packet.GossipAlive {
					n++
				}
			}
			if a.nonAlive != n {
				t.Fatalf("at %v agent %d counts %d members non-alive, recount %d", r.eng.Now(), a.idx, a.nonAlive, n)
			}
			if got, want := a.isolatedView(), n >= r.gsp.quorum; got != want {
				t.Fatalf("at %v agent %d isolatedView %v, recount says %v", r.eng.Now(), a.idx, got, want)
			}
			if a.isolatedView() {
				isolated++
			}
		}
	}
	t.Logf("%d checks, %d isolated agent views, %d confirms", checks, isolated, r.gsp.stats.HostsConfirmed)
	if checks == 0 || isolated == 0 || r.gsp.stats.HostsConfirmed == 0 {
		t.Errorf("campaign too quiet: %d checks, %d isolated agent views, %d confirms", checks, isolated, r.gsp.stats.HostsConfirmed)
	}
}

// TestSortUpdatesMatchesStableSort checks the digest queue's insertion
// pass against the stable sort by (sends, seq) on random queues: seq
// values unique and shuffled, sends drawn from a few values so ties
// are common.
func TestSortUpdatesMatchesStableSort(t *testing.T) {
	f := func(sends []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seqs := rng.Perm(len(sends))
		u := make([]gossipUpdate, len(sends))
		for i, s := range sends {
			u[i] = gossipUpdate{entry: packet.GossipEntry{Node: int32(i)}, sends: int(s % 4), seq: uint64(seqs[i])}
		}
		want := slices.Clone(u)
		slices.SortStableFunc(want, func(x, y gossipUpdate) int {
			if c := cmp.Compare(x.sends, y.sends); c != 0 {
				return c
			}
			return cmp.Compare(x.seq, y.seq)
		})
		sortUpdates(u)
		return slices.Equal(u, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
