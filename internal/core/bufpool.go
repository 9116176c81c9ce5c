package core

import (
	"fmt"
	"io"

	"repro/internal/gm"
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
	var err error
	res.Points, err = runCells(cfg.PoolSizes, runObs{}, nil, func(size int, _ runObs) (BufPoolPoint, error) {
		return runBufPoolPoint(cfg, size)
	})
	return res, err
}

func runBufPoolPoint(cfg BufPoolConfig, poolSize int) (BufPoolPoint, error) {
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
	point := BufPoolPoint{PoolSize: poolSize}
	hosts := topo.Hosts()
	for _, h := range hosts {
		cl.Host(h).OnMessage = func(topology.NodeID, []byte, units.Time) { point.Delivered++ }
	}
	src := poissonSource{pattern: workload.HotSpot, hotFraction: cfg.HotFraction, load: cfg.Load,
		msgBytes: cfg.MessageSize, seed: cfg.Seed + 1, until: cfg.Window}
	err = src.start(cl, hosts, func(host *gm.Host, dst topology.NodeID) {
		point.Sent++
		if err := host.Send(dst, make([]byte, cfg.MessageSize)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return BufPoolPoint{}, err
	}
	// Let retransmissions drain after injection stops.
	cl.Eng.RunUntil(cfg.Window * 4)
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
