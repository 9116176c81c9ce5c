package core

import (
	"fmt"
	"io"

	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// BufPoolConfig drives the buffer-pool experiment: the paper's
// proposed circular receive queue, under hotspot traffic beyond
// saturation, with GM's retransmission recovering the flushed packets.
type BufPoolConfig struct {
	// PoolSizes are the circular-queue depths to compare.
	PoolSizes []int
	// Load is the offered load (fraction of link bandwidth per host);
	// pick a value beyond saturation to force flushes.
	Load float64
	// HotFraction concentrates the traffic.
	HotFraction float64
	MessageSize int
	Switches    int
	Seed        int64
	Window      units.Time
}

// DefaultBufPoolConfig exercises overflow on a small irregular net.
func DefaultBufPoolConfig() BufPoolConfig {
	return BufPoolConfig{
		PoolSizes:   []int{2, 4, 8, 16, 32},
		Load:        0.8,
		HotFraction: 0.7,
		MessageSize: 1024,
		Switches:    4,
		Seed:        21,
		Window:      1 * units.Millisecond,
	}
}

// BufPoolPoint is the outcome for one pool size.
type BufPoolPoint struct {
	PoolSize    int
	Sent        uint64
	Delivered   uint64
	PoolDrops   uint64
	Retransmits uint64
	// DropRate is pool drops per packet arrival.
	DropRate float64
}

// BufPoolResult is the full experiment.
type BufPoolResult struct {
	Points []BufPoolPoint
}

// RunBufPool measures how the proposed buffer pool behaves beyond
// saturation: small pools flush packets (recovered by GM
// retransmission, as the paper describes); larger pools absorb the
// bursts, and the drop rate falls toward zero — the paper's argument
// that the 8 MB of NIC memory makes flushes "very unusual".
func RunBufPool(cfg BufPoolConfig) (BufPoolResult, error) {
	var res BufPoolResult
	if err := workload.CheckLoad(cfg.Load); err != nil {
		return res, fmt.Errorf("core: buffer-pool study: %w", err)
	}
	mix, err := workload.FixedSize(cfg.MessageSize)
	if err != nil {
		return res, fmt.Errorf("core: buffer-pool study: %w", err)
	}
	res.Points, err = runCells(cfg.PoolSizes, runObs{}, nil, func(size int, _ runObs) (BufPoolPoint, error) {
		return runBufPoolPoint(cfg, mix, size)
	})
	return res, err
}

func runBufPoolPoint(cfg BufPoolConfig, mix workload.SizeMix, poolSize int) (BufPoolPoint, error) {
	topo, err := topology.Generate(topology.DefaultGenConfig(cfg.Switches, cfg.Seed))
	if err != nil {
		return BufPoolPoint{}, err
	}
	ccfg := DefaultConfig(topo, routing.ITBRouting, mcp.ITB)
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = poolSize
	ccfg.GM.AckTimeout = 300 * units.Microsecond
	cl, err := NewCluster(ccfg)
	if err != nil {
		return BufPoolPoint{}, err
	}
	flows, err := workload.Plan(topo, workload.PlanConfig{
		Scenario: workload.ScenarioPattern, Pattern: workload.HotSpot, HotFraction: cfg.HotFraction,
		Load: cfg.Load, Sizes: mix, Seed: cfg.Seed + 1, Horizon: cfg.Window,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	})
	if err != nil {
		return BufPoolPoint{}, err
	}
	point := BufPoolPoint{PoolSize: poolSize, Sent: uint64(len(flows))}
	// Let retransmissions drain after injection stops.
	deliveries, _ := runOpenLoop(cl, flows, cfg.Window*4, nil)
	for _, n := range deliveries {
		point.Delivered += uint64(n)
	}
	hosts := topo.Hosts()
	for _, h := range hosts {
		host := cl.Host(h)
		point.Retransmits += host.Stats().Retransmits
		point.PoolDrops += host.MCP().Stats().PoolDrops
	}
	arrivals := point.Delivered + point.PoolDrops
	if arrivals > 0 {
		point.DropRate = float64(point.PoolDrops) / float64(arrivals)
	}
	return point, nil
}

// WriteTable renders the result.
func (r BufPoolResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Buffer pool (proposed circular receive queue) beyond saturation\n")
	fmt.Fprintf(w, "%8s %10s %10s %10s %12s %10s\n",
		"pool", "sent", "delivered", "drops", "retransmits", "drop-rate")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %10d %10d %10d %12d %9.2f%%\n",
			p.PoolSize, p.Sent, p.Delivered, p.PoolDrops, p.Retransmits, 100*p.DropRate)
	}
	fmt.Fprintf(w, "paper: flushes only beyond saturation; large NIC memory makes them very unusual\n")
}
