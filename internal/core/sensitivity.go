package core

import (
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// SensitivityRow is one UD/ITB curve pair of the sensitivity study:
// the stock pair, or the stock pair with one factor changed.
type SensitivityRow struct {
	Factor  string // "stock", or the changed factor's setting
	UD, ITB SweepResult
}

// Ratio is the ITB/UD peak-throughput ratio, 0 when UD accepted
// nothing.
func (r SensitivityRow) Ratio() float64 {
	if r.UD.Throughput == 0 {
		return 0
	}
	return r.ITB.Throughput / r.UD.Throughput
}

// SensitivityResult is the sensitivity study: how the ITB gain over
// up*/down* moves when one factor of the stock comparison changes —
// the traffic pattern, the fabric's channel release policy (the
// model-fidelity check), the up*/down* ordering (the companion study
// [3], "Combining In-Transit Buffers with Optimized Routing Schemes")
// or the spanning-tree root.
type SensitivityResult struct {
	Switches int
	Rows     []SensitivityRow
}

// sensitivityLoads are the offered loads of every sensitivity curve.
var sensitivityLoads = []float64{0.2, 0.5, 0.8}

// sensitivitySpec is one row of the sensitivity grid: its label and
// its UD/ITB curve pair, or a nil pair when the row's curves would be
// the stock pair's.
type sensitivitySpec struct {
	label string
	pair  []curve
}

// sensitivityGrid returns the sensitivity study's rows on the
// irregular network text of switches switches: the stock pair (BFS
// ordering, lowest-id root, conservative release, uniform traffic)
// first, then one pair per changed factor. The best and worst roots
// are read off text itself, the network every curve runs on; a root
// row whose root is the one the stock orientation elects anyway has a
// nil pair and takes the stock pair's results.
func sensitivityGrid(switches int, text []byte) ([]sensitivitySpec, error) {
	topo, err := readTopo(text)
	if err != nil {
		return nil, err
	}
	stockRoot := topology.BuildUpDown(topo).Root
	best, _ := routing.BestRoot(topo)
	worst, _ := routing.WorstRoot(topo)
	stock := curve{switches: switches, loads: sensitivityLoads}
	traffic := func(p workload.Pattern, hot float64) []curve {
		c := stock
		c.pattern, c.hot = p, hot
		return udAndITB(c)
	}
	progressive := stock
	progressive.progressive = true
	// oriented runs the stock pair over the UD and ITB variants of one
	// up*/down* orientation.
	oriented := func(o routing.UpDownEngine) []curve {
		ud, itb := o, o
		itb.ITB = true
		pair := udAndITB(stock)
		pair[0].alg, pair[1].alg = &ud, &itb
		return pair
	}
	rooted := func(root topology.NodeID) []curve {
		if root == stockRoot {
			return nil
		}
		return oriented(routing.UpDownEngine{Root: &root})
	}
	return []sensitivitySpec{
		{"stock", udAndITB(stock)},
		{workload.HotSpot.String(), traffic(workload.HotSpot, 0.3)},
		{workload.BitReversal.String(), traffic(workload.BitReversal, 0)},
		{workload.Permutation.String(), traffic(workload.Permutation, 0)},
		{"progressive release", udAndITB(progressive)},
		{"DFS order", oriented(routing.UpDownEngine{DFS: true})},
		{"best root", rooted(best)},
		{"worst root", rooted(worst)},
	}, nil
}

// runSensitivityRows runs the curves of specs as one batch and returns
// their rows in order; a spec with a nil pair takes the stock row's
// results, so specs holding one must start with the stock row.
func runSensitivityRows(specs []sensitivitySpec, switches int, text []byte, seed int64, window units.Time) ([]SensitivityRow, error) {
	var curves []curve
	for _, s := range specs {
		curves = append(curves, s.pair...)
	}
	sweeps, err := runCurves(curves, map[int][]byte{switches: text}, seed, window, nil, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]SensitivityRow, len(specs))
	for i, s := range specs {
		if s.pair == nil {
			rows[i] = SensitivityRow{Factor: s.label, UD: rows[0].UD, ITB: rows[0].ITB}
			continue
		}
		rows[i] = SensitivityRow{Factor: s.label, UD: sweeps[0], ITB: sweeps[1]}
		sweeps = sweeps[2:]
	}
	return rows, nil
}

// RunSensitivity runs every curve of the sensitivity study as one
// batch on the irregular network of switches switches.
func RunSensitivity(switches int, seed int64, window units.Time) (SensitivityResult, error) {
	res := SensitivityResult{Switches: switches}
	text, err := irregularText(switches, seed)
	if err != nil {
		return res, err
	}
	specs, err := sensitivityGrid(switches, text)
	if err != nil {
		return res, err
	}
	res.Rows, err = runSensitivityRows(specs, switches, text, seed, window)
	return res, err
}

// WriteTable renders the study.
func (r SensitivityResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "ITB throughput sensitivity, one factor changed per row (%d switches, peak accepted per host)\n", r.Switches)
	fmt.Fprintf(w, "%-20s %8s %8s %8s %8s %8s %8s %8s\n",
		"factor", "UD", "ITB", "ratio", "UD-hops", "ITB-hops", "UD-root", "ITB-root")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %8.3f %8.3f %7.2fx %8.2f %8.2f %7.0f%% %7.0f%%\n",
			row.Factor, row.UD.Throughput, row.ITB.Throughput, row.Ratio(),
			row.UD.RouteStats.AvgLinkHops, row.ITB.RouteStats.AvgLinkHops,
			100*row.UD.RouteStats.RootFraction, 100*row.ITB.RouteStats.RootFraction)
	}
	fmt.Fprintf(w, "stock: uniform traffic, conservative release policy, BFS order, lowest-id root; each peak is the best of offered loads %v\n", sensitivityLoads)
	fmt.Fprintf(w, "companion studies: ITBs improve on every base ordering, and with minimal routes the root choice stops mattering\n")
}
