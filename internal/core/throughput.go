package core

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// SweepConfig drives an offered-load sweep on an irregular network,
// reproducing the methodology of the companion evaluation papers whose
// results this paper's introduction summarises ("network throughput
// can be easily doubled and, in some cases, tripled").
type SweepConfig struct {
	// Switches sizes the random irregular topology.
	Switches int
	// Seed makes topology and traffic reproducible.
	Seed int64
	// Pattern is the destination distribution.
	Pattern workload.Pattern
	// HotFraction applies to the HotSpot pattern.
	HotFraction float64
	// MessageSize is the payload per message in bytes.
	MessageSize int
	// Loads are the offered loads to sweep, as fractions of per-host
	// link bandwidth.
	Loads []float64
	// Window is the measurement interval; injection runs for
	// Warmup+Window of simulated time and only deliveries of messages
	// sent inside the window count.
	Window units.Time
	// Warmup is discarded start-up time.
	Warmup units.Time
	// Algorithm selects the routing and its orientation (ITB routes
	// run on the ITB firmware, up*/down* routes on the original MCP).
	// Required.
	Algorithm *routing.UpDownEngine
	// ProgressiveRelease switches the fabric to tail-passing channel
	// release (model-fidelity ablation).
	ProgressiveRelease bool
	// Metrics, when non-nil, receives the merged end-of-run metrics of
	// every load point, prefixed "point<NN>." in Loads order (merged in
	// run order; byte-identical at any worker count).
	Metrics *metrics.Registry
}

// DefaultSweepConfig returns a medium irregular network sweep.
func DefaultSweepConfig(alg *routing.UpDownEngine, switches int, seed int64) SweepConfig {
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return SweepConfig{
		Switches:    switches,
		Seed:        seed,
		Pattern:     workload.Uniform,
		MessageSize: 512,
		Loads:       loads,
		Window:      2 * units.Millisecond,
		Warmup:      200 * units.Microsecond,
		Algorithm:   alg,
	}
}

// LoadPoint is one sweep point.
type LoadPoint struct {
	// Offered and Accepted are traffic fractions of per-host link
	// bandwidth (payload bytes, normalised).
	Offered, Accepted float64
	// AvgLatency and P99Latency cover messages sent and delivered in
	// the measurement window.
	AvgLatency units.Time
	P99Latency units.Time
	Sent       uint64
	Delivered  uint64
	// Latencies holds the raw per-message latency samples (in
	// picoseconds, as float64) for distribution plots.
	Latencies *stats.Summary
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

// RunSweep executes the sweep: one fresh cluster per load point, so
// points are independent and reproducible. The points dispatch
// through the parallel runner; results merge in Loads order, so the
// curve is byte-identical at any worker count.
func RunSweep(cfg SweepConfig) (SweepResult, error) {
	res, err := runSweeps([]SweepConfig{cfg}, cfg.Metrics, []string{""})
	if err != nil {
		return SweepResult{}, err
	}
	return res[0], nil
}

// sweepCell is load point k of sweep j of a batch: the sweep's
// configuration, the offered load, and the topology in serialized
// form, so every worker reads its own private copy and shares no
// structure with its siblings.
type sweepCell struct {
	j, k     int
	cfg      SweepConfig
	mix      workload.SizeMix
	load     float64
	topoText []byte
}

// sweepPoint is what one load-point run measures.
type sweepPoint struct {
	point LoadPoint
	rs    routing.Analysis
}

// runSweeps runs every load point of every sweep as one batch of
// cells, so a grid of sweeps fills the worker pool at once. Point k of
// sweep j merges its metrics into reg as labels[j]+"point<k>."; each
// cfg's own Metrics is ignored.
func runSweeps(cfgs []SweepConfig, reg *metrics.Registry, labels []string) ([]SweepResult, error) {
	var cells []sweepCell
	texts := map[[2]int64][]byte{} // by (switches, seed)
	for j, cfg := range cfgs {
		if cfg.Algorithm == nil {
			return nil, fmt.Errorf("core: sweep needs a routing algorithm")
		}
		if cfg.Window <= 0 {
			return nil, fmt.Errorf("core: sweep needs a positive window")
		}
		mix, err := workload.FixedSize(cfg.MessageSize)
		if err != nil {
			return nil, fmt.Errorf("core: sweep: %w", err)
		}
		for _, load := range cfg.Loads {
			if err := workload.CheckLoad(load); err != nil {
				return nil, fmt.Errorf("core: sweep: %w", err)
			}
		}
		key := [2]int64{int64(cfg.Switches), cfg.Seed}
		if texts[key] == nil {
			text, err := irregularText(cfg.Switches, cfg.Seed)
			if err != nil {
				return nil, err
			}
			texts[key] = text
		}
		text := texts[key]
		for k, load := range cfg.Loads {
			cells = append(cells, sweepCell{j: j, k: k, cfg: cfg, mix: mix, load: load, topoText: text})
		}
	}
	points, err := runCells(cells, runObs{reg: reg}, func(i int, _ sweepPoint) string {
		return fmt.Sprintf("%spoint%02d.", labels[cells[i].j], cells[i].k)
	}, runLoadPoint)
	if err != nil {
		return nil, err
	}
	res := make([]SweepResult, len(cfgs))
	for j, cfg := range cfgs {
		res[j] = SweepResult{Algorithm: cfg.Algorithm, Switches: cfg.Switches}
	}
	for i, p := range points {
		r := &res[cells[i].j]
		r.Points = append(r.Points, p.point)
		r.RouteStats = p.rs
	}
	for j := range res {
		var pts []stats.Point
		for _, p := range res[j].Points {
			pts = append(pts, stats.Point{X: p.Offered, Y: p.Accepted})
		}
		res[j].Throughput = stats.MaxY(pts).Y
	}
	return res, nil
}

func runLoadPoint(c sweepCell, obs runObs) (sweepPoint, error) {
	cfg, load := c.cfg, c.load
	topo, err := readTopo(c.topoText)
	if err != nil {
		return sweepPoint{}, err
	}
	ccfg := DefaultConfig(topo, cfg.Algorithm, variantFor(cfg.Algorithm))
	// Raw-network measurement: no acks. Loaded networks need the
	// paper's proposed buffer pool: with the faithful two blocking
	// receive buffers, an in-transit packet pins a buffer until its
	// re-injection drains, which violates the consumption assumption
	// behind the deadlock-freedom argument and wedges the network —
	// exactly why Section 4 proposes the circular receive queue for
	// medium and high loads. A generous pool keeps drops to beyond-
	// saturation cases; both algorithms get the same pool for
	// fairness.
	ccfg.GM.DisableAcks = true
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 64
	ccfg.Fabric.ProgressiveRelease = cfg.ProgressiveRelease
	obs.install(&ccfg)
	cl, err := NewCluster(ccfg)
	if err != nil {
		return sweepPoint{}, err
	}
	endAt := cfg.Warmup + cfg.Window
	flows, err := workload.Plan(topo, workload.PlanConfig{
		Scenario: workload.ScenarioPattern, Pattern: cfg.Pattern, HotFraction: cfg.HotFraction,
		Load: load, Sizes: c.mix, Seed: cfg.Seed + 1, Horizon: endAt,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	})
	if err != nil {
		return sweepPoint{}, err
	}

	var point LoadPoint
	var lat stats.Summary
	var deliveredBytes uint64
	for _, f := range flows {
		if f.Start >= cfg.Warmup {
			point.Sent++
		}
	}
	// Run to the window end plus a drain margin for messages sent
	// near the edge, then stop (saturated backlogs need not drain).
	runOpenLoop(cl, flows, endAt+cfg.Window/2, func(i int, t units.Time) {
		f := flows[i]
		if f.Start < cfg.Warmup || t > endAt {
			return // outside the measurement window
		}
		point.Delivered++
		deliveredBytes += uint64(f.Bytes)
		lat.Add(float64(t - f.Start))
	})

	windowSec := cfg.Window.Seconds()
	linkBps := float64(cl.Net.Params().LinkBandwidth)
	point.Offered = load
	point.Accepted = float64(deliveredBytes) / windowSec / float64(len(topo.Hosts())) / linkBps
	if lat.N() > 0 {
		point.AvgLatency = units.Time(lat.Mean())
		point.P99Latency = units.Time(lat.Percentile(99))
	}
	point.Latencies = &lat
	obs.finish(cl)
	return sweepPoint{point: point, rs: routing.Analyze(topo, cl.UD, cl.Table)}, nil
}

// WriteTable renders the sweep.
func (r SweepResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Throughput sweep: %s, %d switches (uniform traffic)\n", r.Algorithm, r.Switches)
	fmt.Fprintf(w, "%10s %10s %14s %14s %8s %10s\n",
		"offered", "accepted", "avg-latency", "p99-latency", "sent", "delivered")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10.3f %10.3f %14s %14s %8d %10d\n",
			p.Offered, p.Accepted, p.AvgLatency, p.P99Latency, p.Sent, p.Delivered)
	}
	fmt.Fprintf(w, "peak accepted traffic: %.3f of link bandwidth per host\n", r.Throughput)
	fmt.Fprintf(w, "routes: avg %.2f hops, %.0f%% minimal, load CV %.2f, %.0f%% cross the root, avg %.2f ITBs\n",
		r.RouteStats.AvgLinkHops, 100*r.RouteStats.MinimalFraction, r.RouteStats.LinkLoadCV,
		100*r.RouteStats.RootFraction, r.RouteStats.AvgITBs)
}
