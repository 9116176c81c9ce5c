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

// ITBCountRow is one point of the ITB-count scaling experiment.
type ITBCountRow struct {
	ITBs    int
	Latency units.Time // one-way delivery latency
	// ExtraPerITB is (Latency - base) / ITBs.
	ExtraPerITB units.Time
}

// ITBCountResult shows latency growing linearly with the number of
// in-transit buffers on a path — the paper's "more than a single ITB
// can be needed in a path" cost model.
type ITBCountResult struct {
	Size int
	Rows []ITBCountRow
}

// RunITBCount measures one-way latency over a chain of switches with
// 0..maxITBs gratuitous ejections at intermediate hosts. A non-nil
// reg receives the merged per-run metrics, prefixed "itb<N>." per ITB
// count.
func RunITBCount(maxITBs int, size int, iterations int, reg *metrics.Registry) (ITBCountResult, error) {
	if maxITBs < 1 || iterations < 1 {
		return ITBCountResult{}, fmt.Errorf("core: need positive maxITBs and iterations")
	}
	res := ITBCountResult{Size: size}
	counts := make([]int, maxITBs+1)
	for n := range counts {
		counts[n] = n
	}
	lats, err := runCells(counts, runObs{reg: reg}, func(n int, _ units.Time) string {
		return fmt.Sprintf("itb%d.", n)
	}, func(n int, obs runObs) (units.Time, error) {
		return chainLatency(maxITBs+2, n, size, iterations, obs)
	})
	if err != nil {
		return res, err
	}
	for n, lat := range lats {
		row := ITBCountRow{ITBs: n, Latency: lat}
		if n > 0 {
			row.ExtraPerITB = (lat - lats[0]) / units.Time(n)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// chainLatency builds a linear chain, hand-builds a route from the
// first to the last host with n ITB splits spread over the
// intermediate switches, and measures the mean one-way latency.
func chainLatency(switches, nITBs, size, iterations int, obs runObs) (units.Time, error) {
	topo := topology.Linear(switches, 1)
	ccfg := DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
	obs.install(&ccfg)
	cl, err := NewCluster(ccfg)
	if err != nil {
		return 0, err
	}
	hosts := topo.Hosts()
	route, err := chainRoute(topo, nITBs)
	if err != nil {
		return 0, err
	}
	lat, err := oneWayLatency(cl, hosts[0], hosts[len(hosts)-1], route, packet.TypeITB, size, iterations)
	if err != nil {
		return 0, err
	}
	obs.finish(cl)
	return lat, nil
}

// chainRoute builds the wire route along the chain, splitting it into
// nITBs+1 segments at evenly spaced intermediate switches.
func chainRoute(topo *topology.Topology, nITBs int) ([]byte, error) {
	sws := topo.Switches()
	hosts := topo.Hosts()
	dst := hosts[len(hosts)-1]
	// Ejection switches: evenly spaced interior switches.
	interior := len(sws) - 2
	if nITBs > interior {
		return nil, fmt.Errorf("core: %d ITBs do not fit in %d interior switches", nITBs, interior)
	}
	ejectAt := map[topology.NodeID]bool{}
	for k := 1; k <= nITBs; k++ {
		ejectAt[sws[k*(interior+1)/(nITBs+1)]] = true
	}
	var segments [][]byte
	var cur []byte
	for i := 0; i+1 < len(sws); i++ {
		// Output port from sws[i] toward sws[i+1].
		port := -1
		for _, nb := range topo.Neighbors(sws[i]) {
			if nb.Node == sws[i+1] {
				port = nb.Port
				break
			}
		}
		if port < 0 {
			return nil, fmt.Errorf("core: chain broken at switch %d", sws[i])
		}
		cur = append(cur, byte(port))
		next := sws[i+1]
		if ejectAt[next] {
			// Deliver into the host of this switch, then resume.
			h := topo.HostsAt(next)[0]
			cur = append(cur, byte(topo.LinkAt(h, 0).PortAt(next)))
			segments = append(segments, cur)
			cur = nil
		}
	}
	cur = append(cur, byte(topo.LinkAt(dst, 0).PortAt(sws[len(sws)-1])))
	segments = append(segments, cur)
	return packet.BuildITBRoute(segments)
}

// WriteTable renders the scaling.
func (r ITBCountResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Latency vs in-transit buffer count (%d-byte messages, one way)\n", r.Size)
	fmt.Fprintf(w, "%6s %14s %14s\n", "ITBs", "latency", "per-ITB")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d %14s %14s\n", row.ITBs, row.Latency, row.ExtraPerITB)
	}
}

// AblationRow compares one firmware design choice.
type AblationRow struct {
	Name    string
	Size    int
	Fast    units.Time // the paper's design
	Slow    units.Time // the ablated variant
	Penalty units.Time
}

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: Early Recv cut-through vs store-and-forward detection, and the
// Recv-side immediate DMA programming vs a dispatch-cycle delay.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblations measures both ablations at the given sizes. The three
// firmware variants (paper design, store-and-forward, dispatch-cycle
// re-injection) at every size are independent runs, dispatched
// through the runner as one batch. A non-nil reg receives the merged
// per-run metrics, prefixed "size<N>.<variant>.".
func RunAblations(sizes []int, iterations int, reg *metrics.Registry) (AblationResult, error) {
	var res AblationResult
	type variant struct {
		size  int
		name  string
		tweak func(*mcp.Config)
	}
	var specs []variant
	for _, size := range sizes {
		specs = append(specs,
			variant{size, "paper", nil},
			variant{size, "store_forward", func(c *mcp.Config) { c.DisableEarlyRecv = true }},
			variant{size, "dispatch", func(c *mcp.Config) { c.ReinjectViaDispatch = true }})
	}
	lats, err := runCells(specs, runObs{reg: reg}, func(i int, _ units.Time) string {
		return fmt.Sprintf("size%d.%s.", specs[i].size, specs[i].name)
	}, func(v variant, obs runObs) (units.Time, error) {
		return fig8ITBLatency(v.size, iterations, v.tweak, obs)
	})
	if err != nil {
		return res, err
	}
	for i := 0; i < len(lats); i += 3 {
		size := specs[i].size
		fast, sf, dd := lats[i], lats[i+1], lats[i+2]
		res.Rows = append(res.Rows, AblationRow{
			Name: "early-recv vs store-and-forward", Size: size,
			Fast: fast, Slow: sf, Penalty: sf - fast,
		}, AblationRow{
			Name: "recv-side DMA vs dispatch cycle", Size: size,
			Fast: fast, Slow: dd, Penalty: dd - fast,
		})
	}
	return res, nil
}

// TraceDemo is the recorded packet lifecycle of one in-transit
// message.
type TraceDemo struct{ *trace.Recorder }

// WriteTable dumps the lifecycle, one event per line.
func (d TraceDemo) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "Packet lifecycle of one in-transit message (host1 -> ITB host -> host2):")
	_ = d.WriteText(w) // tables drop write errors, like every Fprintf in WriteTable
}

// RunTraceDemo runs one in-transit message through the testbed with a
// recorder attached and returns the trace — the Figure 4/5 control
// flow made observable.
func RunTraceDemo() (TraceDemo, error) {
	topo, nodes, routes := fig8Testbed()
	rec := trace.NewRecorder(0)
	cfg := DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
	cfg.Trace = rec
	cl, err := NewCluster(cfg)
	if err != nil {
		return TraceDemo{}, err
	}
	cl.Host(nodes.Host1).SendVia(nodes.Host2, make([]byte, 256), routes.itbForward, packet.TypeITB)
	cl.Eng.Run()
	return TraceDemo{rec}, nil
}

// fig8ITBLatency measures the ITB-path half round trip at one size
// under an optionally ablated firmware.
func fig8ITBLatency(size, iterations int, tweak func(*mcp.Config), obs runObs) (units.Time, error) {
	topo, nodes, routes := fig8Testbed()
	cfg := DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
	if tweak != nil {
		tweak(&cfg.MCP)
	}
	obs.install(&cfg)
	cl, err := NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	res, err := gm.Allsize(cl.Eng, cl.Host(nodes.Host1), cl.Host(nodes.Host2), gm.AllsizeConfig{
		Sizes:      []int{size},
		Iterations: iterations,
		Warmup:     2,
		Forward:    &gm.PingRoute{Route: routes.itbForward, Type: packet.TypeITB},
		Back:       &gm.PingRoute{Route: routes.back, Type: packet.TypeGM},
	})
	if err != nil {
		return 0, err
	}
	obs.finish(cl)
	return res[0].HalfRoundTrip, nil
}

// WriteTable renders the ablations.
func (r AblationResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Firmware design-choice ablations (ITB path half round trip)\n")
	fmt.Fprintf(w, "%-34s %8s %14s %14s %12s\n", "ablation", "size(B)", "paper design", "ablated", "penalty")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-34s %8d %14s %14s %12s\n",
			row.Name, row.Size, row.Fast, row.Slow, row.Penalty)
	}
}
