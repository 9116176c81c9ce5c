package core

import (
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestRootStudy(t *testing.T) {
	res, err := RunRootStudy(16, 13, 300*units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	cell := func(label string, alg *routing.UpDownEngine) RootStudyRow {
		for _, r := range res.Rows {
			if r.Label == label && r.Algorithm.ITB == alg.ITB {
				return r
			}
		}
		t.Fatalf("missing cell %s/%v", label, alg)
		return RootStudyRow{}
	}
	budUD := cell("best root", routing.UpDownRouting)
	wudUD := cell("worst root", routing.UpDownRouting)
	budITB := cell("best root", routing.ITBRouting)
	wudITB := cell("worst root", routing.ITBRouting)

	// The root choice changes up*/down* route quality...
	if budUD.AvgHops > wudUD.AvgHops {
		t.Errorf("best-root UD hops %.2f above worst-root %.2f", budUD.AvgHops, wudUD.AvgHops)
	}
	// ...but ITB routes are minimal under any root.
	if budITB.AvgHops != wudITB.AvgHops {
		t.Errorf("ITB hops differ across roots: %.3f vs %.3f", budITB.AvgHops, wudITB.AvgHops)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	for _, want := range []string{"best root", "worst root", "throughput"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestSweepWithPinnedRoot(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := routing.WorstRoot(topo)
	base := runCurve(t, curve{switches: 8, alg: &routing.UpDownEngine{Root: &root}, loads: []float64{0.2}}, 200*units.Microsecond)
	if base.Points[0].Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
