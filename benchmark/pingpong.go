package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/topology"
)

// pingIters sizes each arm of a testbed-pingpong repetition to about a
// third of a second of host time on a 2-core x86-64 container.
const (
	pingIters  = 2000
	pingWarmup = 3
)

// pingArm is one measured configuration of the paper's testbed.
type pingArm struct {
	name    string
	variant mcp.Variant
	// fig8 selects the loopback testbed and pinned 5-crossing routes;
	// itb picks the in-transit forward path among them.
	fig8, itb bool
}

// pingArms are Figure 7's firmware pair over the stock up*/down* route
// and Figure 8's UD and UD-ITB paths on the ITB firmware.
var pingArms = []pingArm{
	{name: "fig7.original", variant: mcp.Original},
	{name: "fig7.itb", variant: mcp.ITB},
	{name: "fig8.ud", variant: mcp.ITB, fig8: true},
	{name: "fig8.ud-itb", variant: mcp.ITB, fig8: true, itb: true},
}

// pingCell is one arm, assembled and ready to run.
type pingCell struct {
	arm  pingArm
	cl   *core.Cluster
	a, b *gm.Host
	cfg  gm.AllsizeConfig
}

// newPingCell assembles an arm the way core.RunFig7 and core.RunFig8
// do, from the public constructors.
func newPingCell(arm pingArm, sp *tracer, iters int) (pingCell, error) {
	c := pingCell{arm: arm, cfg: gm.AllsizeConfig{
		Sizes: gm.DefaultAllsizeSizes(), Iterations: iters, Warmup: pingWarmup,
	}}
	var topo *topology.Topology
	var nodes topology.TestbedNodes
	err := sp.timed("topology.build", func() error {
		topo, nodes = topology.Testbed()
		if arm.fig8 {
			// The loopback cable on switch 2 that lets the up*/down*
			// path wind through five switch crossings.
			topo.Connect(nodes.Switch2, 5, nodes.Switch2, 6, topology.LAN)
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	if arm.fig8 {
		// Port bytes of the hand-built Figure 8 paths; the return path
		// is common to both arms so it cancels in their difference.
		fwd, typ := []byte{0, 5, 1, 4, 2}, packet.TypeGM
		if arm.itb {
			if fwd, err = packet.BuildITBRoute([][]byte{{0, 1, 6}, {4, 2}}); err != nil {
				return c, err
			}
			typ = packet.TypeITB
		}
		c.cfg.Forward = &gm.PingRoute{Route: fwd, Type: typ}
		c.cfg.Back = &gm.PingRoute{Route: []byte{0, 5}, Type: packet.TypeGM}
	}
	err = sp.timed("core.cluster", func() error {
		// The zero routing configuration is the stock up*/down* table
		// that both figures use.
		c.cl, err = core.NewCluster(core.Config{
			Topo:   topo,
			MCP:    mcp.DefaultConfig(arm.variant),
			GM:     gm.DefaultParams(),
			Fabric: fabric.DefaultParams(),
		})
		return err
	})
	if err != nil {
		return c, err
	}
	c.a, c.b = c.cl.Host(nodes.Host1), c.cl.Host(nodes.Host2)
	return c, nil
}

// run executes the arm's gm_allsize sweep and checks that the cluster
// quiesced: no live events, every pool packet returned.
func (c pingCell) run(r *rep) ([]gm.AllsizeResult, error) {
	pool0 := packet.PoolOutstanding()
	rows, err := gm.Allsize(c.cl.Eng, c.a, c.b, c.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.arm.name, err)
	}
	r.check(c.cl.Eng.LiveCount() == 0, "%s: %d live events after quiescence", c.arm.name, c.cl.Eng.LiveCount())
	r.check(packet.PoolOutstanding() == pool0, "%s: %d pool packets outstanding after quiescence",
		c.arm.name, packet.PoolOutstanding()-pool0)
	r.attempted += uint64(len(c.cfg.Sizes) * (c.cfg.Iterations + c.cfg.Warmup))
	r.events += c.cl.Eng.Fired()
	r.addFabric(c.cl.Net.Stats())
	for _, h := range c.cl.Topo.Hosts() {
		r.addMCP(c.cl.Host(h).MCP().Stats())
		r.addGM(c.cl.Host(h).Stats())
	}
	for _, row := range rows {
		r.row("%s size=%d half_rtt_ps=%d min_ps=%d max_ps=%d", c.arm.name, row.Size,
			int64(row.HalfRoundTrip), int64(row.Min), int64(row.Max))
	}
	return rows, nil
}

// Paper figures the fidelity check holds the simulator to, and how far
// the average may stray before the output counts as wrong.
const (
	paperFig7Ns, fig7TolNs = 125, 25
	paperFig8Ns, fig8TolNs = 1300, 100
)

func setupPingPong(r *rep) (func() error, error) {
	var cells []pingCell
	for _, arm := range pingArms {
		c, err := newPingCell(arm, &r.spans, pingIters)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	r.probeTopo = cells[0].cl.Topo
	return func() error {
		for _, c := range cells {
			if err := r.unit(c.arm.name, func() error {
				_, err := c.run(r)
				return err
			}); err != nil {
				return err
			}
		}
		return r.unit("fidelity", func() error { return pingFidelity(r) })
	}, nil
}

// pingFidelity runs the two figures at their default configuration and
// holds their averages to the paper's.
func pingFidelity(r *rep) error {
	f7, err := core.RunFig7(core.DefaultFig7Config())
	if err != nil {
		return err
	}
	f8, err := core.RunFig8(core.DefaultFig8Config())
	if err != nil {
		return err
	}
	e7 := math.Abs(f7.AvgOverhead.Nanoseconds() - paperFig7Ns)
	e8 := math.Abs(f8.AvgOverhead.Nanoseconds() - paperFig8Ns)
	r.fidelity = map[string]float64{"fig7_err_ns": e7, "fig8_err_ns": e8}
	r.check(e7 <= fig7TolNs, "fig7 average overhead %v is %.2f ns from the paper's %d ns", f7.AvgOverhead, e7, paperFig7Ns)
	r.check(e8 <= fig8TolNs, "fig8 per-ITB cost %v is %.2f ns from the paper's %d ns", f8.AvgOverhead, e8, paperFig8Ns)
	r.row("fidelity fig7_avg_ps=%d fig8_avg_ps=%d", int64(f7.AvgOverhead), int64(f8.AvgOverhead))
	def := core.DefaultFig7Config()
	r.attempted += uint64(2 * 2 * len(def.Sizes) * (def.Iterations + def.Warmup))
	return nil
}
