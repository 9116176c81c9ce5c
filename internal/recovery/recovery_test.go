package recovery

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// rig is a full Figure-1 cluster (fabric, MCPs, GM hosts) with a
// recovery manager monitoring from host 0.
type rig struct {
	eng   *sim.Engine
	topo  *topology.Topology
	f     topology.Figure1Nodes
	hosts []*gm.Host
	mgr   *Manager
	tr    *trace.Recorder
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	topo, f := topology.Figure1()
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
	tr := trace.NewRecorder(4096)
	mgr, err := NewManager(cfg, Target{
		Eng:     eng,
		Topo:    topo,
		Base:    tbl,
		Hosts:   hosts,
		Monitor: 0,
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, topo: topo, f: f, hosts: hosts, mgr: mgr, tr: tr}
}

// idx maps a topology node to its Hosts index.
func (r *rig) idx(node topology.NodeID) int {
	for i, h := range r.hosts {
		if h.Node() == node {
			return i
		}
	}
	return -1
}

// TestDetectionAndConvergence kills one host's NIC mid-run and checks
// the full pipeline: probes miss, the host walks Alive -> Suspected ->
// Confirmed with a finite measured detection latency, a new epoch is
// published, and every live host converges onto it with routes that no
// longer depend on the dead host.
func TestDetectionAndConvergence(t *testing.T) {
	cfg := DefaultConfig(2000 * units.Microsecond)
	r := newRig(t, cfg)
	victim := r.f.Hosts[3]
	vi := r.idx(victim)
	r.eng.ScheduleAt(100*units.Microsecond, func() {
		r.hosts[vi].MCP().SetStalled(true)
	})
	r.mgr.Start()
	r.eng.Run()

	if got := r.mgr.StateOf(victim); got != Confirmed {
		t.Fatalf("victim state = %v, want Confirmed", got)
	}
	st := r.mgr.Stats()
	if st.HostsSuspected == 0 || st.HostsConfirmed != 1 {
		t.Errorf("suspected=%d confirmed=%d, want >0 and 1", st.HostsSuspected, st.HostsConfirmed)
	}
	if st.ProbesSent == 0 || st.ProbeReplies == 0 || st.ProbeMisses == 0 {
		t.Errorf("probe counters: %+v", st)
	}
	if st.Detection.N() != 1 {
		t.Fatalf("detection samples = %d, want 1", st.Detection.N())
	}
	d := units.Time(st.Detection.Mean())
	if d <= 0 || d > cfg.Deadline {
		t.Errorf("detection latency = %v, want finite and positive", d)
	}
	if r.mgr.Epoch() == 0 || st.EpochsPublished == 0 {
		t.Fatalf("no epoch published: epoch=%d published=%d", r.mgr.Epoch(), st.EpochsPublished)
	}
	if st.Convergence.N() == 0 {
		t.Error("no convergence samples")
	}
	for i, h := range r.hosts {
		if i == vi {
			continue
		}
		if h.Epoch() != r.mgr.Epoch() {
			t.Errorf("host %d at epoch %d, cluster published %d", i, h.Epoch(), r.mgr.Epoch())
		}
	}
	// Incremental rebuild actually reused the unaffected routes.
	if st.RoutesReused == 0 {
		t.Error("no routes reused across the rebuild")
	}
	// Published routes must not eject through (or terminate at) the
	// dead host.
	tbl := r.mgr.Table()
	for _, src := range r.topo.Hosts() {
		for _, dst := range r.topo.Hosts() {
			if src == dst {
				continue
			}
			route, ok := tbl.Lookup(src, dst)
			if !ok {
				continue
			}
			if src == victim || dst == victim {
				t.Errorf("published table still routes %d->%d involving the dead host", src, dst)
			}
			for _, h := range route.ITBHosts() {
				if h == victim {
					t.Errorf("route %d->%d still ejects through the dead host", src, dst)
				}
			}
		}
	}
	// The deadline bounds the protocol: the engine quiesced shortly
	// after it (in-flight probes/installs only).
	if r.eng.Now() > cfg.Deadline+cfg.Period {
		t.Errorf("engine ran to %v, deadline %v", r.eng.Now(), cfg.Deadline)
	}
	// The trace tells the story.
	for _, k := range []trace.Kind{trace.HostSuspected, trace.HostConfirmed, trace.EpochPublish, trace.EpochInstall} {
		if len(r.tr.OfKind(k)) == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
}

// TestResurrection revives the NIC after confirmation: the standing
// probes notice, the verdict is reversed, and a fresh epoch restores
// the host's routes cluster-wide.
func TestResurrection(t *testing.T) {
	cfg := DefaultConfig(3000 * units.Microsecond)
	r := newRig(t, cfg)
	victim := r.f.Hosts[3]
	vi := r.idx(victim)
	r.eng.ScheduleAt(100*units.Microsecond, func() { r.hosts[vi].MCP().SetStalled(true) })
	r.eng.ScheduleAt(1500*units.Microsecond, func() { r.hosts[vi].MCP().SetStalled(false) })
	r.mgr.Start()
	r.eng.Run()

	st := r.mgr.Stats()
	if st.HostsConfirmed != 1 {
		t.Fatalf("confirmed = %d, want 1 (the host must die first)", st.HostsConfirmed)
	}
	if st.Resurrections != 1 {
		t.Fatalf("resurrections = %d, want 1", st.Resurrections)
	}
	if got := r.mgr.StateOf(victim); got != Alive {
		t.Errorf("victim state = %v after revival, want Alive", got)
	}
	if st.EpochsPublished < 2 {
		t.Errorf("epochs published = %d, want >= 2 (death + resurrection)", st.EpochsPublished)
	}
	// Everyone — including the revived host — converged on the final
	// epoch, and its routes are back.
	for i, h := range r.hosts {
		if h.Epoch() != r.mgr.Epoch() {
			t.Errorf("host %d at epoch %d, want %d", i, h.Epoch(), r.mgr.Epoch())
		}
	}
	if _, ok := r.mgr.Table().Lookup(r.f.Hosts[0], victim); !ok {
		t.Error("final table has no route back to the resurrected host")
	}
}

// TestHealthyClusterStaysQuiet runs the prober over a fault-free
// cluster: every probe answers, nobody is ever suspected, and no
// epoch is published — the protocol is pure overhead measurement.
func TestHealthyClusterStaysQuiet(t *testing.T) {
	cfg := DefaultConfig(1000 * units.Microsecond)
	r := newRig(t, cfg)
	r.mgr.Start()
	r.eng.Run()
	st := r.mgr.Stats()
	if st.ProbesSent == 0 || st.ProbesSent != st.ProbeReplies {
		t.Errorf("sent=%d replies=%d, want all probes answered", st.ProbesSent, st.ProbeReplies)
	}
	if st.HostsSuspected != 0 || st.EpochsPublished != 0 || r.mgr.Epoch() != 0 {
		t.Errorf("healthy cluster produced verdicts: %+v", st)
	}
}

// TestPeerReportAcceleratesDetection feeds the detector GM's dead-peer
// verdict and checks it shortcuts the miss ladder.
func TestPeerReportAcceleratesDetection(t *testing.T) {
	cfg := DefaultConfig(2000 * units.Microsecond)
	r := newRig(t, cfg)
	victim := r.f.Hosts[2]
	vi := r.idx(victim)
	r.eng.ScheduleAt(50*units.Microsecond, func() { r.hosts[vi].MCP().SetStalled(true) })
	r.eng.ScheduleAt(60*units.Microsecond, func() { r.mgr.ReportPeerDead(victim) })
	r.mgr.Start()
	r.eng.Run()
	st := r.mgr.Stats()
	if st.PeerReports != 1 {
		t.Fatalf("peer reports = %d, want 1", st.PeerReports)
	}
	if r.mgr.StateOf(victim) != Confirmed {
		t.Fatalf("victim not confirmed after peer report + misses")
	}
	// The report marked it suspected immediately, well before the
	// first scheduled round could have.
	ev := r.tr.OfKind(trace.HostSuspected)
	if len(ev) == 0 {
		t.Fatal("no HostSuspected trace event")
	}
	if ev[0].At >= cfg.Period {
		t.Errorf("suspected at %v, want before the first round (%v)", ev[0].At, cfg.Period)
	}
}

// scenario runs the death+resurrection schedule and returns a
// signature covering every observable the study reports.
func scenario(t *testing.T) string {
	cfg := DefaultConfig(3000 * units.Microsecond)
	r := newRig(t, cfg)
	vi := r.idx(r.f.Hosts[3])
	r.eng.ScheduleAt(100*units.Microsecond, func() { r.hosts[vi].MCP().SetStalled(true) })
	r.eng.ScheduleAt(1500*units.Microsecond, func() { r.hosts[vi].MCP().SetStalled(false) })
	r.mgr.Start()
	r.eng.Run()
	st := r.mgr.Stats()
	return fmt.Sprintf("probes=%d/%d/%d verdicts=%d/%d/%d/%d epochs=%d reused=%d det=%v conv=%v final=%d now=%d trace=%d",
		st.ProbesSent, st.ProbeReplies, st.ProbeMisses,
		st.HostsSuspected, st.HostsConfirmed, st.HostsRestored, st.Resurrections,
		st.EpochsPublished, st.RoutesReused,
		st.Detection.Mean(), st.Convergence.Mean(),
		r.mgr.Epoch(), r.eng.Now(), r.tr.Total())
}

// TestScenarioDeterministic runs the same churn twice in fresh worlds
// and demands identical observables.
func TestScenarioDeterministic(t *testing.T) {
	a, b := scenario(t), scenario(t)
	if a != b {
		t.Fatalf("two runs diverged:\n  %s\n  %s", a, b)
	}
}
