package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// planTopo builds a 16-host fat-tree for the scenario tests.
func planTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.FatTree(topology.DefaultFatTreeConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func planConfig(s Scenario) PlanConfig {
	return PlanConfig{
		Scenario:      s,
		Load:          0.5,
		Arrival:       ArrivalConfig{Kind: Poisson},
		Sizes:         WebSearch(),
		Seed:          7,
		Horizon:       100 * units.Microsecond,
		LinkBandwidth: units.Bandwidth(160e6),
	}
}

func TestScenarioNames(t *testing.T) {
	for _, s := range []Scenario{ScenarioUniform, ScenarioIncast, ScenarioOutcast, ScenarioAllToAll} {
		got, err := ScenarioByName(s.String())
		if err != nil || got != s {
			t.Errorf("ScenarioByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ScenarioByName("hotspot"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestPlanShapes(t *testing.T) {
	topo := planTopo(t)
	hosts := topo.Hosts()
	hostSet := map[topology.NodeID]bool{}
	for _, h := range hosts {
		hostSet[h] = true
	}
	for _, s := range []Scenario{ScenarioUniform, ScenarioIncast, ScenarioOutcast, ScenarioAllToAll} {
		flows, err := Plan(topo, planConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(flows) == 0 {
			t.Fatalf("%v: empty plan", s)
		}
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Fatalf("%v: self-flow %v", s, f.Src)
			}
			if !hostSet[f.Src] || !hostSet[f.Dst] {
				t.Fatalf("%v: flow endpoints %v->%v not hosts", s, f.Src, f.Dst)
			}
			if f.Start <= 0 || f.Start >= 100*units.Microsecond {
				t.Fatalf("%v: start %v outside (0, horizon)", s, f.Start)
			}
			if f.Bytes < MinFlowBytes || f.Bytes > MaxFlowBytes {
				t.Fatalf("%v: size %d out of range", s, f.Bytes)
			}
			switch s {
			case ScenarioIncast:
				if f.Dst != hosts[0] {
					t.Fatalf("incast flow to %v, want victim %v", f.Dst, hosts[0])
				}
			case ScenarioOutcast:
				if f.Src != hosts[0] {
					t.Fatalf("outcast flow from %v, want source %v", f.Src, hosts[0])
				}
			}
		}
	}
}

func TestPlanFaninBoundsParticipants(t *testing.T) {
	topo := planTopo(t)
	hosts := topo.Hosts()
	cfg := planConfig(ScenarioIncast)
	cfg.Fanin = 3
	flows, err := Plan(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	senders := map[topology.NodeID]bool{}
	for _, f := range flows {
		senders[f.Src] = true
	}
	if len(senders) != 3 {
		t.Fatalf("incast fanin 3 used %d senders", len(senders))
	}
	for _, h := range hosts[1:4] {
		if !senders[h] {
			t.Errorf("expected sender %v missing", h)
		}
	}

	cfg = planConfig(ScenarioOutcast)
	cfg.Fanin = 3
	flows, err = Plan(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsts := map[topology.NodeID]bool{}
	for _, f := range flows {
		dsts[f.Dst] = true
	}
	if len(dsts) != 3 {
		t.Fatalf("outcast fanin 3 hit %d receivers", len(dsts))
	}
}

// Per-sender start times are strictly increasing — each sender's
// schedule is its own arrival stream.
func TestPlanPerSenderMonotonic(t *testing.T) {
	topo := planTopo(t)
	flows, err := Plan(topo, planConfig(ScenarioUniform))
	if err != nil {
		t.Fatal(err)
	}
	last := map[topology.NodeID]units.Time{}
	for _, f := range flows {
		if f.Start <= last[f.Src] {
			t.Fatalf("sender %v start %v not after %v", f.Src, f.Start, last[f.Src])
		}
		last[f.Src] = f.Start
	}
}

// Property: the plan is a pure function of (topology, config) — two
// compilations are deeply equal, and the sender streams are private:
// growing the incast fan leaves the original senders' flows unchanged.
func TestPlanDeterminism(t *testing.T) {
	topo := planTopo(t)
	for _, s := range []Scenario{ScenarioUniform, ScenarioIncast, ScenarioAllToAll} {
		a, err := Plan(topo, planConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Plan(topo, planConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: plan not deterministic", s)
		}
	}

	small := planConfig(ScenarioIncast)
	small.Fanin = 3
	big := planConfig(ScenarioIncast)
	big.Fanin = 6
	a, err := Plan(topo, small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(topo, big)
	if err != nil {
		t.Fatal(err)
	}
	var bFirst []Flow
	senders := map[topology.NodeID]bool{}
	for _, f := range a {
		senders[f.Src] = true
	}
	for _, f := range b {
		if senders[f.Src] {
			bFirst = append(bFirst, f)
		}
	}
	if !reflect.DeepEqual(a, bFirst) {
		t.Error("growing the fan changed the original senders' streams")
	}
}

func TestPlanBurstyArrivals(t *testing.T) {
	topo := planTopo(t)
	cfg := planConfig(ScenarioUniform)
	cfg.Arrival = ArrivalConfig{Kind: Bursty}
	flows, err := Plan(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("bursty plan empty")
	}
}

func TestPlanErrors(t *testing.T) {
	topo := planTopo(t)
	bad := planConfig(ScenarioUniform)
	bad.Sizes = nil
	if _, err := Plan(topo, bad); err == nil {
		t.Error("nil size mix accepted")
	}
	bad = planConfig(ScenarioUniform)
	bad.Horizon = 0
	if _, err := Plan(topo, bad); err == nil {
		t.Error("zero horizon accepted")
	}
	bad = planConfig(ScenarioUniform)
	bad.Fanin = len(topo.Hosts())
	if _, err := Plan(topo, bad); err == nil {
		t.Error("fanin above host count accepted")
	}
	bad = planConfig(ScenarioUniform)
	bad.Load = -1
	if _, err := Plan(topo, bad); err == nil {
		t.Error("negative load accepted")
	}
	bad = planConfig(Scenario(42))
	if _, err := Plan(topo, bad); err == nil {
		t.Error("unknown scenario accepted")
	}
	bad = planConfig(ScenarioUniform)
	bad.Arrival = ArrivalConfig{Kind: Bursty, OnFraction: 2}
	if _, err := Plan(topo, bad); err == nil {
		t.Error("invalid arrival config accepted")
	}
}

// An absurd load over a long horizon must fail fast at the flow cap,
// not allocate gigabytes.
func TestPlanFlowCap(t *testing.T) {
	topo := planTopo(t)
	cfg := planConfig(ScenarioUniform)
	cfg.Load = 1e12
	cfg.Horizon = units.Millisecond
	if _, err := Plan(topo, cfg); err == nil {
		t.Error("plan beyond the flow cap accepted")
	}
}

// TestPlanAtTheEndOfTime plans with gaps of about 10^18 ps up to the
// largest representable horizon: a sender's clock must stop at the
// horizon rather than wrap past it into negative start times.
func TestPlanAtTheEndOfTime(t *testing.T) {
	topo := planTopo(t)
	mix, err := FixedSize(MaxFlowBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scenario{ScenarioUniform, ScenarioPattern} {
		cfg := planConfig(s)
		cfg.Sizes, cfg.Load, cfg.Horizon = mix, 5e-9, units.Time(math.MaxInt64)
		flows, err := Plan(topo, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(flows) == 0 {
			t.Fatalf("%v: empty plan", s)
		}
		for _, f := range flows {
			if f.Start <= 0 {
				t.Fatalf("%v: start %v", s, f.Start)
			}
		}
	}
}
