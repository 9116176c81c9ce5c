package mapper

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// deploy builds the network with an MCP on every host and returns the
// MCP of the designated mapper host.
func deploy(t *testing.T, topo *topology.Topology, mapperHost topology.NodeID) *mcp.MCP {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	var mine *mcp.MCP
	for _, h := range topo.Hosts() {
		m := mcp.New(net, h, mcp.DefaultConfig(mcp.ITB))
		if h == mapperHost {
			mine = m
		}
	}
	if mine == nil {
		t.Fatal("mapper host has no NIC")
	}
	return mine
}

func discover(t *testing.T, topo *topology.Topology) Map {
	t.Helper()
	m := deploy(t, topo, topo.Hosts()[0])
	mp := New(m, DefaultConfig())
	res, err := mp.Discover()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDiscoverTestbed(t *testing.T) {
	topo, nodes := topology.Testbed()
	res := discover(t, topo)
	if res.Switches != 2 {
		t.Errorf("switches = %d, want 2", res.Switches)
	}
	if len(res.Hosts) != 3 {
		t.Errorf("hosts = %d, want 3", len(res.Hosts))
	}
	// Three inter-switch cables.
	if len(res.Cables) != 3 {
		t.Errorf("cables = %d, want 3", len(res.Cables))
	}
	if err := res.Matches(topo); err != nil {
		t.Error(err)
	}
	// The mapper (host1) hangs off switch 1 port 5 per the testbed.
	if res.OwnPort != topo.LinkAt(nodes.Host1, 0).PortAt(nodes.Switch1) {
		t.Errorf("own port = %d", res.OwnPort)
	}
}

func TestDiscoverFigure1(t *testing.T) {
	topo, _ := topology.Figure1()
	res := discover(t, topo)
	if res.Switches != 7 {
		t.Errorf("switches = %d, want 7", res.Switches)
	}
	if err := res.Matches(topo); err != nil {
		t.Error(err)
	}
}

func TestDiscoverLinear(t *testing.T) {
	topo := topology.Linear(5, 2)
	res := discover(t, topo)
	if err := res.Matches(topo); err != nil {
		t.Error(err)
	}
	if res.Probes == 0 {
		t.Error("no probes counted")
	}
}

func TestDiscoverRing(t *testing.T) {
	// A ring exercises cycle handling: the exploration must converge
	// instead of unrolling the cycle into phantom switches.
	topo := topology.Ring(5, 1)
	res := discover(t, topo)
	if err := res.Matches(topo); err != nil {
		t.Error(err)
	}
}

func TestBuildTopologyRoutesWork(t *testing.T) {
	// The reconstructed topology must be routable: build ITB routes
	// on it and verify deadlock freedom.
	topo, err := topology.Generate(topology.DefaultGenConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	res := discover(t, topo)
	if err := res.Matches(topo); err != nil {
		t.Fatal(err)
	}
	rebuilt, ids, err := res.BuildTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(topo.Hosts()) {
		t.Errorf("translated %d hosts, want %d", len(ids), len(topo.Hosts()))
	}
	ud := topology.BuildUpDown(rebuilt)
	tbl, err := routing.ITBRouting.BuildTable(rebuilt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.CheckDeadlockFree(tbl.Routes()); err != nil {
		t.Error(err)
	}
	an := routing.Analyze(rebuilt, ud, tbl)
	if an.MinimalFraction != 1 {
		t.Errorf("rebuilt-topology ITB routes only %.0f%% minimal", 100*an.MinimalFraction)
	}
}

func TestDiscoverFromEveryHost(t *testing.T) {
	// Discovery must not depend on where the mapper runs.
	topo := topology.Linear(3, 1)
	for _, h := range topo.Hosts() {
		m := deploy(t, topo, h)
		res, err := New(m, DefaultConfig()).Discover()
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
		if err := res.Matches(topo); err != nil {
			t.Errorf("host %d: %v", h, err)
		}
	}
}

func TestNewPanics(t *testing.T) {
	topo := topology.Linear(2, 1)
	m := deploy(t, topo, topo.Hosts()[0])
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(m, Config{})
}

func TestBuildTopologyErrors(t *testing.T) {
	bad := Map{Switches: 1, Cables: []Cable{{ASwitch: 0, APort: 0, BSwitch: 5, BPort: 0}}}
	if _, _, err := bad.BuildTopology(8); err == nil {
		t.Error("cable to unknown switch accepted")
	}
	if _, _, err := (&Map{}).BuildTopology(0); err == nil {
		t.Error("zero maxPorts accepted")
	}
	badHost := Map{Switches: 1, Hosts: []HostAttachment{{Host: 9, Switch: 3}}}
	if _, _, err := badHost.BuildTopology(8); err == nil {
		t.Error("host on unknown switch accepted")
	}
}

// Property: discovery reproduces random irregular topologies.
func TestDiscoverProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%9) + 2
		topo, err := topology.Generate(topology.DefaultGenConfig(n, seed))
		if err != nil {
			return false
		}
		m := deployQuiet(topo)
		res, err := New(m, DefaultConfig()).Discover()
		if err != nil {
			return false
		}
		return res.Matches(topo) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func deployQuiet(topo *topology.Topology) *mcp.MCP {
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	var mine *mcp.MCP
	for _, h := range topo.Hosts() {
		m := mcp.New(net, h, mcp.DefaultConfig(mcp.ITB))
		if mine == nil {
			mine = m
		}
	}
	return mine
}
