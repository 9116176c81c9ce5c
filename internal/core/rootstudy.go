package core

import (
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// RootStudyRow holds one (root choice, algorithm) cell.
type RootStudyRow struct {
	Root      topology.NodeID
	Label     string
	Algorithm *routing.UpDownEngine
	AvgHops   float64
	RootFrac  float64
	// Throughput is the peak accepted traffic with this root and
	// algorithm.
	Throughput float64
}

// RootStudyResult quantifies how much the spanning-tree root choice
// matters — a lot for stock up*/down* (path lengths and the root
// bottleneck both depend on it), and almost not at all once ITBs make
// every route minimal.
type RootStudyResult struct {
	Switches int
	Rows     []RootStudyRow
}

// RunRootStudy evaluates the best and worst roots under both
// routings on one irregular network.
func RunRootStudy(switches int, seed int64, window units.Time) (RootStudyResult, error) {
	res := RootStudyResult{Switches: switches}
	topo, err := topology.Generate(topology.DefaultGenConfig(switches, seed))
	if err != nil {
		return res, err
	}
	bestRoot, _ := routing.BestRoot(topo)
	worstRoot, _ := routing.WorstRoot(topo)
	cases := []struct {
		label string
		root  topology.NodeID
	}{
		{"best root", bestRoot},
		{"worst root", worstRoot},
	}
	var curves []curve
	for _, c := range cases {
		for _, itb := range []bool{false, true} {
			root := c.root
			curves = append(curves, curve{switches: switches,
				alg: &routing.UpDownEngine{ITB: itb, Root: &root}, loads: []float64{0.2, 0.5, 0.8}})
		}
	}
	sweeps, err := runCurves(curves, seed, window, nil, nil)
	if err != nil {
		return res, err
	}
	for i, sr := range sweeps {
		res.Rows = append(res.Rows, RootStudyRow{
			Root:       *sr.Algorithm.Root,
			Label:      cases[i/2].label,
			Algorithm:  sr.Algorithm,
			AvgHops:    sr.RouteStats.AvgLinkHops,
			RootFrac:   sr.RouteStats.RootFraction,
			Throughput: sr.Throughput,
		})
	}
	return res, nil
}

// WriteTable renders the study.
func (r RootStudyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Root-choice sensitivity (%d switches)\n", r.Switches)
	fmt.Fprintf(w, "%-12s %-18s %10s %10s %12s\n", "root", "routing", "avg-hops", "root-frac", "throughput")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-18s %10.2f %9.0f%% %12.3f\n",
			row.Label, row.Algorithm.String(), row.AvgHops, 100*row.RootFrac, row.Throughput)
	}
	fmt.Fprintf(w, "ITB routes are minimal under any root, so the root choice stops mattering\n")
}
