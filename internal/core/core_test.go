package core

import (
	"strings"
	"testing"

	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestNewClusterBasics(t *testing.T) {
	topo, nodes := topology.Testbed()
	cl, err := NewCluster(DefaultConfig(topo, routing.UpDownRouting, mcp.ITB))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Hosts) != 3 {
		t.Errorf("hosts = %d", len(cl.Hosts))
	}
	if cl.Host(nodes.Host1) == nil {
		t.Error("Host() nil")
	}
	if err := cl.CheckDeadlockFree(); err != nil {
		t.Error(err)
	}
	// A message flows end to end.
	got := false
	cl.Host(nodes.Host2).OnMessage = func(_ topology.NodeID, _ []byte, _ units.Time) { got = true }
	if err := cl.Host(nodes.Host1).Send(nodes.Host2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if !got {
		t.Error("message not delivered through cluster")
	}
}

func TestNewClusterErrors(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	bad := topology.New()
	bad.AddSwitch(4, "")
	bad.AddHost("loose")
	if _, err := NewCluster(DefaultConfig(bad, routing.UpDownRouting, mcp.ITB)); err == nil {
		t.Error("invalid topology accepted")
	}
}

func TestClusterHostPanics(t *testing.T) {
	topo, _ := topology.Testbed()
	cl, err := NewCluster(DefaultConfig(topo, routing.UpDownRouting, mcp.ITB))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cl.Host(topology.NodeID(99))
}

func TestClusterWithExplicitRoot(t *testing.T) {
	topo, f := topology.Figure1()
	root := f.Switches[0]
	cl, err := NewCluster(DefaultConfig(topo, &routing.UpDownEngine{ITB: true, Root: &root}, mcp.ITB))
	if err != nil {
		t.Fatal(err)
	}
	if cl.UD.Root != root {
		t.Errorf("root = %d, want %d", cl.UD.Root, root)
	}
}

func TestFig7OverheadBand(t *testing.T) {
	res, err := RunFig7(Fig7Config{Sizes: []int{8, 256, 4096}, Iterations: 25, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper: ~125 ns average, never above 300 ns.
	if res.AvgOverhead < 50*units.Nanosecond || res.AvgOverhead > 300*units.Nanosecond {
		t.Errorf("avg overhead = %v, want ~125ns", res.AvgOverhead)
	}
	if res.MaxOverhead > 300*units.Nanosecond {
		t.Errorf("max overhead = %v, paper says <300ns", res.MaxOverhead)
	}
	// Relative overhead falls as messages grow (1% -> 0.4% shape).
	if !(res.Rows[0].RelativePct > res.Rows[2].RelativePct) {
		t.Errorf("relative overhead not decreasing: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Overhead <= 0 {
			t.Errorf("size %d: non-positive overhead %v", row.Size, row.Overhead)
		}
	}
}

func TestFig8PerITBBand(t *testing.T) {
	res, err := RunFig8(Fig8Config{Sizes: []int{8, 256, 4096}, Iterations: 25, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~1.3 us per ITB.
	if res.AvgOverhead < 800*units.Nanosecond || res.AvgOverhead > 2*units.Microsecond {
		t.Errorf("avg per-ITB cost = %v, want ~1.3us", res.AvgOverhead)
	}
	// Relative overhead falls with message size (10% -> 3% shape).
	if !(res.Rows[0].RelativePct > res.Rows[2].RelativePct) {
		t.Errorf("relative overhead not decreasing: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.UDITB <= row.UD {
			t.Errorf("size %d: ITB path not slower (%v vs %v)", row.Size, row.UDITB, row.UD)
		}
	}
}

func TestFig8PathsCrossFiveSwitches(t *testing.T) {
	// Structural check on the hand-built routes: both forward routes
	// traverse exactly five switch crossings (route bytes consumed at
	// switches), as the paper requires for a fair comparison.
	_, _, routes := fig8Testbed()
	// UD forward: every byte is consumed at a switch.
	if len(routes.udForward) != 5 {
		t.Errorf("UD forward consumes %d route bytes, want 5", len(routes.udForward))
	}
	// ITB forward: 3 + 2 port bytes plus the 2-byte ITB marker.
	if len(routes.itbForward) != 3+2+2 {
		t.Errorf("ITB forward header = %d bytes, want 7", len(routes.itbForward))
	}
}

func TestCostReport(t *testing.T) {
	r, err := RunCostReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.PerPacketTotal < 50*units.Nanosecond || r.PerPacketTotal > 300*units.Nanosecond {
		t.Errorf("per-packet budget = %v", r.PerPacketTotal)
	}
	if r.ITBDetect < 200*units.Nanosecond || r.ITBDetect > 400*units.Nanosecond {
		t.Errorf("detect = %v, paper assumed ~275ns", r.ITBDetect)
	}
	if r.ProgramSendDMA < 150*units.Nanosecond || r.ProgramSendDMA > 300*units.Nanosecond {
		t.Errorf("program = %v, paper assumed ~200ns", r.ProgramSendDMA)
	}
	if r.MeasuredPerITB < 800*units.Nanosecond || r.MeasuredPerITB > 2*units.Microsecond {
		t.Errorf("measured per-ITB = %v, want ~1.3us", r.MeasuredPerITB)
	}
	var sb strings.Builder
	r.WriteTable(&sb)
	for _, want := range []string{"cost breakdown", "early-recv", "1.3 us"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteTables(t *testing.T) {
	f7, err := RunFig7(Fig7Config{Sizes: []int{64}, Iterations: 10, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	f7.WriteTable(&sb)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("fig7 table header missing")
	}
	f8, err := RunFig8(Fig8Config{Sizes: []int{64}, Iterations: 10, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	f8.WriteTable(&sb)
	if !strings.Contains(sb.String(), "UD-ITB") {
		t.Error("fig8 table header missing")
	}
}
