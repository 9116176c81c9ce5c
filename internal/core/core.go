// Package core is the public façade of the ITB reproduction: it
// assembles the substrates (topology, the route table and up*/down*
// orientation of one routing engine, wormhole fabric, LANai NICs, MCP
// firmware, GM hosts) into a runnable Cluster, and packages every
// experiment of the paper's evaluation — Figure 7, Figure 8, the cost
// breakdown — plus the throughput/load studies from the companion
// papers that motivate the mechanism, as library calls.
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config assembles a cluster.
type Config struct {
	// Topo is the network wiring. Required.
	Topo *topology.Topology
	// Engine computes the cluster's link orientation and route table:
	// routing.UpDownRouting or routing.ITBRouting for the paper's two
	// routings (with a pinned orientation for the root and scheme
	// studies), or any other engine, which is how the load study runs
	// the same simulation stack under updown-itb, layered-ksp and
	// minimal-escape. Nil means routing.UpDownRouting, the stock
	// up*/down* table.
	Engine routing.Engine
	// MCP is the firmware configuration used on every NIC.
	MCP mcp.Config
	// GM is the host-layer configuration used on every host.
	GM gm.Params
	// Fabric sets the network timing.
	Fabric fabric.Params
	// Trace, when non-nil, records packet-lifecycle events from the
	// fabric, every MCP and every GM host.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live instrumentation (latency
	// histograms, queue-depth high-water gauges) while the cluster
	// runs; call Cluster.PublishMetrics at end of run to add the
	// counter snapshot. Nil costs the hot paths only a nil check.
	Metrics *metrics.Registry
}

// DefaultConfig returns a cluster configuration modelling the paper's
// testbed software stack with the given routing engine and firmware
// variant.
func DefaultConfig(t *topology.Topology, e routing.Engine, v mcp.Variant) Config {
	return Config{
		Topo:   t,
		Engine: e,
		MCP:    mcp.DefaultConfig(v),
		GM:     gm.DefaultParams(),
		Fabric: fabric.DefaultParams(),
	}
}

// Cluster is a fully wired simulated Myrinet cluster.
type Cluster struct {
	Eng   *sim.Engine
	Topo  *topology.Topology
	UD    *topology.UpDown
	Net   *fabric.Network
	Table *routing.Table
	// Hosts maps host node ids to their GM endpoints.
	Hosts map[topology.NodeID]*gm.Host
}

// NewCluster builds and wires a cluster. The engine's table build
// validates the topology.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("core: config needs a topology")
	}
	e := cfg.Engine
	if e == nil {
		e = routing.UpDownRouting
	}
	tbl, err := e.BuildTable(cfg.Topo, nil)
	if err != nil {
		return nil, err
	}
	// Size the fabric to the engine's lane requirement unless the
	// caller pinned a lane count explicitly.
	if cfg.Fabric.Lanes == 0 {
		cfg.Fabric.Lanes = e.Lanes()
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, cfg.Topo, cfg.Fabric)
	c := &Cluster{
		Eng:   eng,
		Topo:  cfg.Topo,
		UD:    tbl.Orientation(),
		Net:   net,
		Table: tbl,
		Hosts: make(map[topology.NodeID]*gm.Host),
	}
	net.SetTracer(cfg.Trace)
	if cfg.Metrics != nil {
		net.SetMetrics(cfg.Metrics)
	}
	for _, h := range cfg.Topo.Hosts() {
		m := mcp.New(net, h, cfg.MCP)
		m.SetTracer(cfg.Trace)
		if cfg.Metrics != nil {
			m.SetMetrics(cfg.Metrics)
		}
		host := gm.NewHost(eng, m, tbl, cfg.GM)
		host.SetTracer(cfg.Trace)
		c.Hosts[h] = host
	}
	return c, nil
}

// PublishMetrics dumps the end-of-run counters of every layer — the
// fabric, each NIC's firmware, each GM host — plus the route-table
// analysis into r, in deterministic (topology) order. Nil registries
// are ignored, so callers can pass their config's registry through
// unconditionally.
func (c *Cluster) PublishMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.Net.PublishMetrics(r)
	for _, h := range c.Topo.Hosts() {
		host := c.Hosts[h]
		host.MCP().PublishMetrics(r)
		host.PublishMetrics(r)
	}
	routing.Analyze(c.Topo, c.UD, c.Table).Publish(r)
}

// Host returns the GM endpoint of a host node.
func (c *Cluster) Host(id topology.NodeID) *gm.Host {
	h := c.Hosts[id]
	if h == nil {
		panic(fmt.Sprintf("core: no host %d", id))
	}
	return h
}

// CheckDeadlockFree verifies the cluster's route table.
func (c *Cluster) CheckDeadlockFree() error {
	return routing.CheckDeadlockFree(c.Table.Routes())
}

// DetectStuck reports packets wedged in the fabric after the event
// queue drained — the runtime (protocol-level) deadlock diagnostic,
// complementing the static route-table check above.
func (c *Cluster) DetectStuck() []fabric.StuckFlight {
	return c.Net.DetectStuck()
}
