package core

import (
	"fmt"
	"io"
	"maps"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// The sweep studies (throughput, scaling, sensitivity) reproduce the
// methodology of the companion evaluation papers whose results this
// paper's introduction summarises ("network throughput can be easily
// doubled and, in some cases, tripled"): offered-load curves on a
// random irregular network, one per routing, each load point one
// windowed open-loop cell. Every curve sends 512-byte messages after a
// 200 µs warm-up.
const (
	sweepMessageBytes = 512
	sweepWarmup       = 200 * units.Microsecond
)

// curve is one offered-load curve of a sweep study: the irregular
// network of switches switches, one up*/down* routing, the destination
// pattern (hot is the HotSpot fraction), the fabric's channel release
// policy and the offered loads.
type curve struct {
	switches    int
	alg         *routing.UpDownEngine
	pattern     workload.Pattern
	hot         float64
	progressive bool
	loads       []float64
}

// udAndITB returns c under up*/down* and under ITB routing.
func udAndITB(c curve) []curve {
	ud, itb := c, c
	ud.alg, itb.alg = routing.UpDownRouting, routing.ITBRouting
	return []curve{ud, itb}
}

// LoadPoint is one sweep point.
type LoadPoint struct {
	// Offered and Accepted are traffic fractions of per-host link
	// bandwidth (payload bytes delivered inside the window, per
	// sender).
	Offered, Accepted float64
	// Sent counts the messages sent inside the window; Delivered those
	// of them that completed by the half-window drain margin.
	Sent      uint64
	Delivered uint64
	// Latencies holds the raw per-message latency samples (in
	// picoseconds, as float64) of the Delivered messages.
	Latencies *stats.Summary
}

// AvgLatency is the mean of Latencies, 0 with no samples.
func (p LoadPoint) AvgLatency() units.Time {
	if p.Latencies == nil {
		return 0
	}
	return units.Time(p.Latencies.Mean())
}

// P99Latency is the 99th percentile of Latencies, 0 with no samples.
func (p LoadPoint) P99Latency() units.Time {
	if p.Latencies == nil {
		return 0
	}
	return units.Time(p.Latencies.Percentile(99))
}

// SweepResult is the full curve.
type SweepResult struct {
	Algorithm *routing.UpDownEngine
	Switches  int
	Points    []LoadPoint
	// Throughput is the peak accepted traffic over the sweep — the
	// evaluation papers' headline number.
	Throughput float64
	// RouteStats summarises the route table (path lengths, balance).
	RouteStats routing.Analysis
}

// runCurves runs every load point of every curve as one batch of
// windowed open-loop cells on the irregular networks of seed, so a
// grid of curves fills the worker pool at once and the results merge
// in curve order. known holds the serialized networks the caller has
// already generated, by switch count; runCurves generates the others.
// Route statistics come from one table build per (network, routing).
// Point k of curve j merges its metrics into reg as
// labels[j]+"point<k>.".
func runCurves(curves []curve, known map[int][]byte, seed int64, window units.Time, reg *metrics.Registry, labels []string) ([]SweepResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: sweep needs a positive window")
	}
	mix, err := workload.FixedSize(sweepMessageBytes)
	if err != nil {
		return nil, err
	}
	type point struct {
		j, k int
		cell openCell
	}
	type network struct {
		switches int
		alg      *routing.UpDownEngine
	}
	var points []point
	res := make([]SweepResult, len(curves))
	texts := map[int][]byte{} // by switches
	maps.Copy(texts, known)
	routeStats := map[network]routing.Analysis{}
	for j, c := range curves {
		if texts[c.switches] == nil {
			if texts[c.switches], err = irregularText(c.switches, seed); err != nil {
				return nil, err
			}
		}
		key := network{c.switches, c.alg}
		if _, ok := routeStats[key]; !ok {
			topo, err := readTopo(texts[c.switches])
			if err != nil {
				return nil, err
			}
			tbl, err := c.alg.BuildTable(topo, nil)
			if err != nil {
				return nil, err
			}
			routeStats[key] = routing.Analyze(topo, tbl.Orientation(), tbl)
		}
		res[j] = SweepResult{Algorithm: c.alg, Switches: c.switches, RouteStats: routeStats[key]}
		for k, load := range c.loads {
			if err := workload.CheckLoad(load); err != nil {
				return nil, fmt.Errorf("core: sweep: %w", err)
			}
			points = append(points, point{j, k, openCell{
				topoText: texts[c.switches], eng: c.alg, progressive: c.progressive,
				plan: workload.PlanConfig{
					Scenario: workload.ScenarioPattern, Pattern: c.pattern, HotFraction: c.hot,
					Load: load, Sizes: mix, Seed: seed + 1,
				},
				warmup: sweepWarmup, window: window,
			}})
		}
	}
	ms, err := runCells(points, runObs{reg: reg}, func(i int, _ openLoopCell) string {
		return fmt.Sprintf("%spoint%02d.", labels[points[i].j], points[i].k)
	}, func(p point, obs runObs) (openLoopCell, error) {
		m, _, err := p.cell.run(obs)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		r := &res[points[i].j]
		r.Points = append(r.Points, LoadPoint{Offered: points[i].cell.plan.Load,
			Accepted: m.delivered, Sent: m.sent, Delivered: m.done, Latencies: m.fct})
		r.Throughput = max(r.Throughput, m.delivered)
	}
	return res, nil
}

// WriteTable renders the sweep.
func (r SweepResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Throughput sweep: %s, %d switches (uniform traffic)\n", r.Algorithm, r.Switches)
	fmt.Fprintf(w, "%10s %10s %14s %14s %8s %10s\n",
		"offered", "accepted", "avg-latency", "p99-latency", "sent", "delivered")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10.3f %10.3f %14s %14s %8d %10d\n",
			p.Offered, p.Accepted, p.AvgLatency(), p.P99Latency(), p.Sent, p.Delivered)
	}
	fmt.Fprintf(w, "peak accepted traffic: %.3f of link bandwidth per host\n", r.Throughput)
	fmt.Fprintf(w, "routes: avg %.2f hops, %.0f%% minimal, load CV %.2f, %.0f%% cross the root, avg %.2f ITBs\n",
		r.RouteStats.AvgLinkHops, 100*r.RouteStats.MinimalFraction, r.RouteStats.LinkLoadCV,
		100*r.RouteStats.RootFraction, r.RouteStats.AvgITBs)
}

// ThroughputReport is the throughput study: the same uniform-traffic
// sweep under up*/down* and under ITB routing.
type ThroughputReport struct{ UD, ITB SweepResult }

// RunThroughput runs the throughput study's two curves on the
// irregular network of switches switches.
func RunThroughput(switches int, seed int64, window units.Time) (ThroughputReport, error) {
	return runThroughput(switches, seed, window, nil)
}

// runThroughput runs the UD and ITB curves of the throughput study as
// one batch; their metrics merge under "ud." and "itb.".
func runThroughput(switches int, seed int64, window units.Time, reg *metrics.Registry) (ThroughputReport, error) {
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	res, err := runCurves(udAndITB(curve{switches: switches, loads: loads}), nil, seed, window, reg, []string{"ud.", "itb."})
	if err != nil {
		return ThroughputReport{}, err
	}
	return ThroughputReport{res[0], res[1]}, nil
}

// WriteTable renders both sweeps, their peak-throughput ratio and
// their latency distributions at offered load 0.3.
func (r ThroughputReport) WriteTable(w io.Writer) {
	r.UD.WriteTable(w)
	fmt.Fprintln(w)
	r.ITB.WriteTable(w)
	if r.UD.Throughput > 0 {
		fmt.Fprintf(w, "\nITB/UD throughput ratio: %.2fx (paper: easily doubled, sometimes tripled on large nets)\n",
			r.ITB.Throughput/r.UD.Throughput)
	}
	for _, pair := range []struct {
		name string
		res  SweepResult
	}{{"UD", r.UD}, {"ITB", r.ITB}} {
		for _, p := range pair.res.Points {
			if p.Offered != 0.3 || p.Latencies == nil || p.Latencies.N() == 0 {
				continue
			}
			us := p.Latencies.Scaled(1.0 / float64(units.Microsecond))
			fmt.Fprintf(w, "\n%s latency distribution at offered load 0.3 (us):\n", pair.name)
			_ = us.WriteHistogram(w, 10, 40) // fixed shape: only write errors, dropped like every Fprintf here
		}
	}
}
