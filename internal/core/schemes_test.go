package core

import (
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/units"
)

func TestSchemesITBWinsOverBothOrderings(t *testing.T) {
	res, err := RunSchemes(16, 5, 400*units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	cell := func(orient string, alg *routing.UpDownEngine) SchemeRow {
		for _, r := range res.Rows {
			if r.Orientation == orient && r.Algorithm.ITB == alg.ITB {
				return r
			}
		}
		t.Fatalf("missing %s/%v", orient, alg)
		return SchemeRow{}
	}
	for _, orient := range []string{"BFS", "DFS"} {
		ud := cell(orient, routing.UpDownRouting)
		itb := cell(orient, routing.ITBRouting)
		if itb.AvgHops > ud.AvgHops {
			t.Errorf("%s: ITB hops %.2f above UD %.2f", orient, itb.AvgHops, ud.AvgHops)
		}
		if itb.Throughput <= ud.Throughput {
			t.Errorf("%s: ITB throughput %.3f did not beat UD %.3f",
				orient, itb.Throughput, ud.Throughput)
		}
	}
	// ITB route lengths are the topological minimum, so both ITB cells
	// agree on hops.
	if a, b := cell("BFS", routing.ITBRouting).AvgHops, cell("DFS", routing.ITBRouting).AvgHops; a != b {
		t.Errorf("ITB hops differ across orderings: %.3f vs %.3f", a, b)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "DFS") {
		t.Error("table missing DFS rows")
	}
}

func TestClusterWithDFSOrder(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: &routing.UpDownEngine{DFS: true}, loads: []float64{0.2}}, 200*units.Microsecond)
	if res.Points[0].Delivered == 0 {
		t.Error("nothing delivered under DFS orientation")
	}
}
