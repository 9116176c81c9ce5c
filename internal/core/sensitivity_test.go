package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// runSensitivity runs the sensitivity study and returns it with its
// rendered table.
func runSensitivity(t *testing.T, switches int, seed int64, window units.Time) (SensitivityResult, string) {
	t.Helper()
	res, err := RunSensitivity(switches, seed, window)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	return res, sb.String()
}

// sensitivityRow returns the row of res labelled factor.
func sensitivityRow(t *testing.T, res SensitivityResult, factor string) SensitivityRow {
	t.Helper()
	for _, r := range res.Rows {
		if r.Factor == factor {
			return r
		}
	}
	t.Fatalf("missing row %q", factor)
	return SensitivityRow{}
}

// factorsChanged names the factors in which c differs from stock: the
// network, the routing (ordering, root and ITBs), the traffic (the
// pattern, with its hotspot fraction), the release policy and the
// offered loads.
func factorsChanged(c, stock curve) []string {
	var out []string
	if c.switches != stock.switches {
		out = append(out, "switches")
	}
	if *c.alg != *stock.alg {
		out = append(out, "routing")
	}
	if c.pattern != stock.pattern || c.hot != stock.hot {
		out = append(out, "traffic")
	}
	if c.progressive != stock.progressive {
		out = append(out, "release")
	}
	if !slices.Equal(c.loads, stock.loads) {
		out = append(out, "loads")
	}
	return out
}

// TestSensitivityOneFactor pins the study's premise: every row but the
// stock one changes exactly one factor of the stock UD/ITB pair, and
// the stock row is the plain UD/ITB comparison at the study's loads.
func TestSensitivityOneFactor(t *testing.T) {
	const switches, seed, window = 8, 5, 150 * units.Microsecond
	text, err := irregularText(switches, seed)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sensitivityGrid(switches, text)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].label != "stock" || len(specs[0].pair) != 2 {
		t.Fatalf("grid starts with %q and %d curves, want the stock pair", specs[0].label, len(specs[0].pair))
	}
	for _, s := range specs[1:] {
		if s.pair == nil {
			// Checked by TestSensitivityStockRootRowReusesStock.
			continue
		}
		for k, name := range []string{"UD", "ITB"} {
			if got := factorsChanged(s.pair[k], specs[0].pair[k]); len(got) != 1 {
				t.Errorf("%s %s curve changes %v, want exactly one factor", s.label, name, got)
			}
		}
	}

	res, _ := runSensitivity(t, switches, seed, window)
	plain, err := runCurves(udAndITB(curve{switches: switches, loads: []float64{0.2, 0.5, 0.8}}), nil, seed, window, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The stock row is the plain pair: the same peaks, and the same
	// points and route statistics behind them.
	stock := sensitivityRow(t, res, "stock")
	if !reflect.DeepEqual(stock.UD, plain[0]) || !reflect.DeepEqual(stock.ITB, plain[1]) {
		t.Errorf("stock row (peaks UD %v, ITB %v) differs from the plain pair (peaks UD %v, ITB %v)",
			stock.UD.Throughput, stock.ITB.Throughput, plain[0].Throughput, plain[1].Throughput)
	}
}

// TestSensitivityStockRootRowReusesStock covers a root row whose root
// is the one the stock BFS orientation elects: on the 8-switch network
// of seed 3 the worst root is the lowest-id switch. That row runs no
// cells of its own (the grid holds 7 pairs of 3 loads, 42 cells, not
// 48) and reads the stock row; simulating its pinned-root pair anyway
// gives the same points and route statistics.
func TestSensitivityStockRootRowReusesStock(t *testing.T) {
	const switches, seed, window = 8, 3, 150 * units.Microsecond
	text, err := irregularText(switches, seed)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sensitivityGrid(switches, text)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	var reused []string
	for _, s := range specs {
		if s.pair == nil {
			reused = append(reused, s.label)
		}
		for _, c := range s.pair {
			cells += len(c.loads)
		}
	}
	if cells != 42 || !slices.Equal(reused, []string{"worst root"}) {
		t.Fatalf("grid holds %d cells and reuses %v, want 42 cells and the worst root row", cells, reused)
	}

	res, _ := runSensitivity(t, switches, seed, window)
	stock, worst := sensitivityRow(t, res, "stock"), sensitivityRow(t, res, "worst root")
	if !reflect.DeepEqual(worst.UD, stock.UD) || !reflect.DeepEqual(worst.ITB, stock.ITB) {
		t.Errorf("worst root row (peaks UD %v, ITB %v) differs from the stock row (peaks UD %v, ITB %v)",
			worst.UD.Throughput, worst.ITB.Throughput, stock.UD.Throughput, stock.ITB.Throughput)
	}
	topo, err := readTopo(text)
	if err != nil {
		t.Fatal(err)
	}
	root := topo.Switches()[0]
	ud := routing.UpDownEngine{Root: &root}
	itb := routing.UpDownEngine{Root: &root, ITB: true}
	pinned := udAndITB(curve{switches: switches, loads: sensitivityLoads})
	pinned[0].alg, pinned[1].alg = &ud, &itb
	sims, err := runCurves(pinned, map[int][]byte{switches: text}, seed, window, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, got := range []SweepResult{stock.UD, stock.ITB} {
		want := sims[k]
		if !reflect.DeepEqual(got.Points, want.Points) || got.Throughput != want.Throughput || got.RouteStats != want.RouteStats {
			t.Errorf("curve %d: stock row (peak %v) differs from the simulated pinned-root pair (peak %v)",
				k, got.Throughput, want.Throughput)
		}
	}
}

func TestPatternStudy(t *testing.T) {
	res, table := runSensitivity(t, 8, 7, 300*units.Microsecond)
	for _, factor := range []string{"stock", "hotspot", "bit-reversal", "permutation"} {
		row := sensitivityRow(t, res, factor)
		if row.UD.Throughput <= 0 || row.ITB.Throughput <= 0 {
			t.Errorf("%s: zero throughput (UD %.3f, ITB %.3f)", factor, row.UD.Throughput, row.ITB.Throughput)
		}
	}
	for _, want := range []string{"uniform", "hotspot", "bit-reversal", "permutation"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestRootStudy(t *testing.T) {
	res, table := runSensitivity(t, 16, 13, 300*units.Microsecond)
	best := sensitivityRow(t, res, "best root")
	worst := sensitivityRow(t, res, "worst root")
	// The root choice changes up*/down* route quality...
	if best.UD.RouteStats.AvgLinkHops > worst.UD.RouteStats.AvgLinkHops {
		t.Errorf("best-root UD hops %.2f above worst-root %.2f",
			best.UD.RouteStats.AvgLinkHops, worst.UD.RouteStats.AvgLinkHops)
	}
	// ...but ITB routes are minimal under any root.
	if a, b := best.ITB.RouteStats.AvgLinkHops, worst.ITB.RouteStats.AvgLinkHops; a != b {
		t.Errorf("ITB hops differ across roots: %.3f vs %.3f", a, b)
	}
	for _, want := range []string{"best root", "worst root", "throughput"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestSchemesITBWinsOverBothOrderings(t *testing.T) {
	res, table := runSensitivity(t, 16, 5, 400*units.Microsecond)
	bfs, dfs := sensitivityRow(t, res, "stock"), sensitivityRow(t, res, "DFS order")
	for _, row := range []SensitivityRow{bfs, dfs} {
		ud, itb := row.UD, row.ITB
		if itb.RouteStats.AvgLinkHops > ud.RouteStats.AvgLinkHops {
			t.Errorf("%s: ITB hops %.2f above UD %.2f", row.Factor, itb.RouteStats.AvgLinkHops, ud.RouteStats.AvgLinkHops)
		}
		if itb.Throughput <= ud.Throughput {
			t.Errorf("%s: ITB throughput %.3f did not beat UD %.3f", row.Factor, itb.Throughput, ud.Throughput)
		}
	}
	// ITB route lengths are the topological minimum, so both ITB cells
	// agree on hops.
	if a, b := bfs.ITB.RouteStats.AvgLinkHops, dfs.ITB.RouteStats.AvgLinkHops; a != b {
		t.Errorf("ITB hops differ across orderings: %.3f vs %.3f", a, b)
	}
	if !strings.Contains(table, "DFS") {
		t.Error("table missing DFS rows")
	}
}

func TestModelFidelity(t *testing.T) {
	res, table := runSensitivity(t, 16, 5, 400*units.Microsecond)
	// The headline conclusion (ITB beats UD) must hold under both
	// release policies.
	if r := sensitivityRow(t, res, "stock").Ratio(); r <= 1.0 {
		t.Errorf("conservative ratio %.2f", r)
	}
	if r := sensitivityRow(t, res, "progressive release").Ratio(); r <= 1.0 {
		t.Errorf("progressive ratio %.2f", r)
	}
	if !strings.Contains(table, "release policy") {
		t.Error("table header")
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

func TestClusterWithDFSOrder(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: &routing.UpDownEngine{DFS: true}, loads: []float64{0.2}}, 200*units.Microsecond)
	if res.Points[0].Delivered == 0 {
		t.Error("nothing delivered under DFS orientation")
	}
}
