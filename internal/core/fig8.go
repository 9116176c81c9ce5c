package core

import (
	"fmt"
	"io"

	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig8Row is one message size of the Figure 8 experiment: the
// half-round-trip latency with the plain up*/down* path (UD) and with
// the in-transit path (UD-ITB), and the derived cost of one ITB.
type Fig8Row struct {
	Size     int
	UD       units.Time // half round trip over the 5-crossing UD path
	UDITB    units.Time // half round trip over the 5-crossing ITB path
	Overhead units.Time // per-ITB cost = 2 * (UDITB - UD)
	// RelativePct is (UDITB-UD)/UD in percent, the per-direction view.
	RelativePct float64
}

// Fig8Result is the full experiment.
type Fig8Result struct {
	Rows []Fig8Row
	// AvgOverhead is the mean per-ITB cost over all sizes.
	AvgOverhead units.Time
}

// Fig8Config tunes the run.
type Fig8Config struct {
	Sizes      []int
	Iterations int
	Warmup     int
	// Metrics, when non-nil, receives the merged end-of-run metrics of
	// both path runs, prefixed "ud." and "ud_itb." (merged in run
	// order; byte-identical at any worker count).
	Metrics *metrics.Registry
	// Trace, when non-nil, receives both runs' packet-lifecycle
	// events, replayed in run order.
	Trace *trace.Recorder
}

// DefaultFig8Config mirrors the paper: 100 iterations per size.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Sizes: gm.DefaultAllsizeSizes(), Iterations: 100, Warmup: 3}
}

// fig8Testbed is the paper's testbed plus the loopback cable on
// switch 2 that the up*/down* comparison path winds through, so that
// both measured forward paths cross exactly five switches.
func fig8Testbed() (*topology.Topology, topology.TestbedNodes, fig8Routes) {
	topo, nodes := topology.Testbed()
	// Loopback cable on switch 2, LAN ports 5 and 6.
	topo.Connect(nodes.Switch2, 5, nodes.Switch2, 6, topology.LAN)

	// Port map (see topology.Testbed): at switch1, port 0 -> cable a
	// (SAN, to switch2), port 1 -> cable b (SAN), port 4 -> cable c
	// (LAN), port 5 -> host1, port 6 -> in-transit host. At switch2,
	// ports 0/1/4 mirror a/b/c, port 2 -> host2, ports 5-6 loop.
	var r fig8Routes
	// UD forward, 5 crossings: host1 -> sw1 -a-> sw2 -loop-> sw2
	// -b-> sw1 -c-> sw2 -> host2.
	r.udForward = []byte{0, 5, 1, 4, 2}
	// ITB forward, 5 crossings: host1 -> sw1 -a-> sw2 -b-> sw1 ->
	// in-transit host | re-inject | sw1 -c-> sw2 -> host2.
	itb, err := packet.BuildITBRoute([][]byte{{0, 1, 6}, {4, 2}})
	if err != nil {
		panic(err) // static routes; cannot fail
	}
	r.itbForward = itb
	// Common return path, 2 crossings: host2 -> sw2 -a-> sw1 -> host1.
	// Identical in both configurations, so it cancels in the
	// difference; the paper's x2 likewise isolates one ITB per round
	// trip.
	r.back = []byte{0, 5}
	return topo, nodes, r
}

type fig8Routes struct {
	udForward  []byte
	itbForward []byte
	back       []byte
}

// RunFig8 measures the cost of one in-transit buffer: half-round-trip
// latency between hosts 1 and 2 where the forward path either winds
// through five switch crossings (UD, using the switch-2 loopback) or
// crosses five switches with one ejection/re-injection at the
// in-transit host (UD-ITB). Both runs use the ITB firmware; the paper
// derives the per-ITB cost as twice the half-round-trip difference
// because each round trip contains exactly one ITB.
func RunFig8(cfg Fig8Config) (Fig8Result, error) {
	// UD and UD-ITB are independent runs over private testbeds; the
	// specs carry only the forward route choice.
	type spec struct {
		forward []byte
		typ     packet.Type
	}
	_, _, routes := fig8Testbed()
	prefixes := []string{"ud.", "ud_itb."}
	runs, err := runCells([]spec{
		{routes.udForward, packet.TypeGM},
		{routes.itbForward, packet.TypeITB},
	}, runObs{cfg.Metrics, cfg.Trace},
		func(i int, _ []gm.AllsizeResult) string { return prefixes[i] },
		func(s spec, obs runObs) ([]gm.AllsizeResult, error) {
			topo, nodes, routes := fig8Testbed()
			ccfg := DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
			obs.install(&ccfg)
			cl, err := NewCluster(ccfg)
			if err != nil {
				return nil, err
			}
			rows, err := gm.Allsize(cl.Eng, cl.Host(nodes.Host1), cl.Host(nodes.Host2), gm.AllsizeConfig{
				Sizes:      cfg.Sizes,
				Iterations: cfg.Iterations,
				Warmup:     cfg.Warmup,
				Forward:    &gm.PingRoute{Route: s.forward, Type: s.typ},
				Back:       &gm.PingRoute{Route: routes.back, Type: packet.TypeGM},
			})
			obs.finish(cl)
			return rows, err
		})
	if err != nil {
		return Fig8Result{}, err
	}
	ud, itb := runs[0], runs[1]
	var res Fig8Result
	var sum units.Time
	for i := range ud {
		halfDiff := itb[i].HalfRoundTrip - ud[i].HalfRoundTrip
		row := Fig8Row{
			Size:        ud[i].Size,
			UD:          ud[i].HalfRoundTrip,
			UDITB:       itb[i].HalfRoundTrip,
			Overhead:    2 * halfDiff,
			RelativePct: 100 * float64(halfDiff) / float64(ud[i].HalfRoundTrip),
		}
		res.Rows = append(res.Rows, row)
		sum += row.Overhead
	}
	if len(res.Rows) > 0 {
		res.AvgOverhead = sum / units.Time(len(res.Rows))
	}
	return res, nil
}

// WriteTable renders the result like the paper's Figure 8 data.
func (r Fig8Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: message latency overhead of the ITB mechanism\n")
	fmt.Fprintf(w, "%8s %14s %14s %12s %8s\n", "size(B)", "UD", "UD-ITB", "per-ITB", "rel(%)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %14s %14s %12s %8.2f\n",
			row.Size, row.UD, row.UDITB, row.Overhead, row.RelativePct)
	}
	fmt.Fprintf(w, "average per-ITB cost: %s\n", r.AvgOverhead)
	fmt.Fprintf(w, "paper: ~1.3 us per ITB, 10%% (short) to 3%% (long) relative\n")
}
