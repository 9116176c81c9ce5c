package core

import (
	"fmt"
	"io"

	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig7Row is one message size of the Figure 7 experiment: the
// half-round-trip latency between hosts 1 and 2 of the testbed under
// the original and the ITB-modified MCP, and the code overhead (their
// difference).
type Fig7Row struct {
	Size               int
	Original, Modified units.Time
	Overhead           units.Time
	// RelativePct is Overhead / Original in percent.
	RelativePct float64
}

// Fig7Result is the full experiment.
type Fig7Result struct {
	Rows        []Fig7Row
	AvgOverhead units.Time
	MaxOverhead units.Time
}

// Fig7Config tunes the run.
type Fig7Config struct {
	Sizes      []int
	Iterations int
	Warmup     int
	// Metrics, when non-nil, receives the merged end-of-run metrics of
	// both firmware runs, prefixed "original." and "modified.". Each
	// run collects into a private registry; the merge happens here in
	// run order, so the snapshot is byte-identical at any worker count.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives both runs' packet-lifecycle
	// events, replayed in run order.
	Trace *trace.Recorder
}

// DefaultFig7Config mirrors the paper: gm_allsize sizes, 100
// iterations per size.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Sizes: gm.DefaultAllsizeSizes(), Iterations: 100, Warmup: 3}
}

// RunFig7 measures the overhead the new MCP code introduces in normal
// operation: the same gm_allsize ping-pong between hosts 1 and 2 over
// stock up*/down* routes, on the original MCP and then on the
// ITB-modified one. Both packets types suffer the new code once per
// packet, on the receive side.
func RunFig7(cfg Fig7Config) (Fig7Result, error) {
	// The two firmware variants are independent runs — each builds its
	// own testbed and engine — so they dispatch through the runner.
	prefixes := []string{"original.", "modified."}
	runs, err := runCells([]mcp.Variant{mcp.Original, mcp.ITB}, runObs{cfg.Metrics, cfg.Trace},
		func(i int, _ []gm.AllsizeResult) string { return prefixes[i] },
		func(v mcp.Variant, obs runObs) ([]gm.AllsizeResult, error) {
			topo, nodes := topology.Testbed()
			ccfg := DefaultConfig(topo, routing.UpDownRouting, v)
			obs.install(&ccfg)
			cl, err := NewCluster(ccfg)
			if err != nil {
				return nil, err
			}
			rows, err := gm.Allsize(cl.Eng, cl.Host(nodes.Host1), cl.Host(nodes.Host2), gm.AllsizeConfig{
				Sizes:      cfg.Sizes,
				Iterations: cfg.Iterations,
				Warmup:     cfg.Warmup,
			})
			obs.finish(cl)
			return rows, err
		})
	if err != nil {
		return Fig7Result{}, err
	}
	orig, mod := runs[0], runs[1]
	var res Fig7Result
	var sum units.Time
	for i := range orig {
		over := mod[i].HalfRoundTrip - orig[i].HalfRoundTrip
		row := Fig7Row{
			Size:        orig[i].Size,
			Original:    orig[i].HalfRoundTrip,
			Modified:    mod[i].HalfRoundTrip,
			Overhead:    over,
			RelativePct: 100 * float64(over) / float64(orig[i].HalfRoundTrip),
		}
		res.Rows = append(res.Rows, row)
		sum += over
		if over > res.MaxOverhead {
			res.MaxOverhead = over
		}
	}
	if len(res.Rows) > 0 {
		res.AvgOverhead = sum / units.Time(len(res.Rows))
	}
	return res, nil
}

// WriteTable renders the result like the paper's Figure 7 data.
func (r Fig7Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: message latency overhead of the new GM/MCP code\n")
	fmt.Fprintf(w, "%8s %14s %14s %12s %8s\n", "size(B)", "original", "modified", "overhead", "rel(%)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %14s %14s %12s %8.2f\n",
			row.Size, row.Original, row.Modified, row.Overhead, row.RelativePct)
	}
	fmt.Fprintf(w, "average overhead: %s   max overhead: %s\n", r.AvgOverhead, r.MaxOverhead)
	fmt.Fprintf(w, "paper: ~125 ns average, <300 ns max, 1%% (short) to 0.4%% (long)\n")
}
