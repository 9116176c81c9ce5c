package core

import (
	"fmt"
	"io"

	"repro/internal/routing"
	"repro/internal/units"
)

// SchemeRow is one (orientation, routing) combination.
type SchemeRow struct {
	Orientation string // "BFS" or "DFS"
	Algorithm   *routing.UpDownEngine
	AvgHops     float64
	Throughput  float64
}

// SchemesResult reproduces the theme of the companion study the paper
// cites as [3] ("Combining In-Transit Buffers with Optimized Routing
// Schemes"): better up*/down* orderings (DFS) improve the baseline,
// and ITBs improve on top of either ordering, because minimal routes
// beat any spanning-tree restriction.
type SchemesResult struct {
	Switches int
	Rows     []SchemeRow
}

// RunSchemes evaluates the 2x2 of {BFS, DFS} x {UD, ITB}.
func RunSchemes(switches int, seed int64, window units.Time) (SchemesResult, error) {
	res := SchemesResult{Switches: switches}
	var curves []curve
	for _, dfs := range []bool{false, true} {
		for _, itb := range []bool{false, true} {
			curves = append(curves, curve{switches: switches,
				alg: &routing.UpDownEngine{ITB: itb, DFS: dfs}, loads: []float64{0.2, 0.5, 0.8}})
		}
	}
	sweeps, err := runCurves(curves, seed, window, nil, nil)
	if err != nil {
		return res, err
	}
	for _, sr := range sweeps {
		orient := "BFS"
		if sr.Algorithm.DFS {
			orient = "DFS"
		}
		res.Rows = append(res.Rows, SchemeRow{
			Orientation: orient,
			Algorithm:   sr.Algorithm,
			AvgHops:     sr.RouteStats.AvgLinkHops,
			Throughput:  sr.Throughput,
		})
	}
	return res, nil
}

// WriteTable renders the comparison.
func (r SchemesResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Routing schemes (%d switches): up*/down* ordering x ITBs\n", r.Switches)
	fmt.Fprintf(w, "%-12s %-18s %10s %12s\n", "ordering", "routing", "avg-hops", "throughput")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-18s %10.2f %12.3f\n",
			row.Orientation, row.Algorithm.String(), row.AvgHops, row.Throughput)
	}
	fmt.Fprintf(w, "companion study [3]: ITBs improve on every base ordering (minimal routes)\n")
}
