package core

import (
	"fmt"
	"io"

	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// ScalingRow compares the two routings at one network size.
type ScalingRow struct {
	Switches      int
	UD, ITB       float64 // peak accepted traffic per host
	Ratio         float64
	UDHops, IHops float64 // average route length
	AvgITBs       float64
}

// ScalingResult is the network-size study: the companion papers'
// observation that the ITB advantage grows with network size (the
// spanning-tree root bottleneck worsens as the tree deepens).
type ScalingResult struct {
	Rows []ScalingRow
}

// RunScaling sweeps network sizes. Every (size, algorithm) curve runs
// in one batch of cells, and the rows assemble from the ordered
// results.
func RunScaling(sizes []int, seed int64, window units.Time) (ScalingResult, error) {
	var res ScalingResult
	var curves []curve
	for _, n := range sizes {
		curves = append(curves, udAndITB(curve{switches: n, loads: []float64{0.2, 0.4, 0.6, 0.8, 1.0}})...)
	}
	sweeps, err := runCurves(curves, nil, seed, window, nil, nil)
	if err != nil {
		return res, err
	}
	for i := 0; i < len(sweeps); i += 2 {
		ud, itb := sweeps[i], sweeps[i+1]
		row := ScalingRow{
			Switches: ud.Switches,
			UD:       ud.Throughput,
			ITB:      itb.Throughput,
			UDHops:   ud.RouteStats.AvgLinkHops,
			IHops:    itb.RouteStats.AvgLinkHops,
			AvgITBs:  itb.RouteStats.AvgITBs,
		}
		if row.UD > 0 {
			row.Ratio = row.ITB / row.UD
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the study.
func (r ScalingResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Throughput vs network size (uniform traffic, peak accepted per host)\n")
	fmt.Fprintf(w, "%10s %10s %10s %8s %10s %10s %10s\n",
		"switches", "UD", "ITB", "ratio", "UD-hops", "ITB-hops", "avg-ITBs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d %10.3f %10.3f %7.2fx %10.2f %10.2f %10.2f\n",
			row.Switches, row.UD, row.ITB, row.Ratio, row.UDHops, row.IHops, row.AvgITBs)
	}
	fmt.Fprintf(w, "paper (via companion studies): ratio grows with size, reaching ~2-3x\n")
}

// ChunkRow is one chunk size of the SDMA pipeline ablation.
type ChunkRow struct {
	ChunkBytes int // 0 = whole-packet staging
	Latency    units.Time
}

// ChunkResult shows the chunk-size tradeoff: large chunks forfeit
// SDMA/wire overlap, tiny chunks pay descriptor-chaining overhead.
type ChunkResult struct {
	Size int
	Rows []ChunkRow
}

// RunChunkAblation measures one-way large-message latency on the
// testbed across SDMA chunk sizes.
func RunChunkAblation(size int, chunks []int, iterations int) (ChunkResult, error) {
	res := ChunkResult{Size: size}
	rows, err := runCells(chunks, runObs{}, nil, func(cb int, _ runObs) (ChunkRow, error) {
		topo, nodes := topology.Testbed()
		cfg := DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
		cfg.MCP.SendChunkBytes = cb
		cl, err := NewCluster(cfg)
		if err != nil {
			return ChunkRow{}, err
		}
		route, ok := cl.Table.Lookup(nodes.Host1, nodes.Host2)
		if !ok {
			return ChunkRow{}, fmt.Errorf("core: no testbed route")
		}
		hdr, err := route.EncodeHeader()
		if err != nil {
			return ChunkRow{}, err
		}
		lat, err := oneWayLatency(cl, nodes.Host1, nodes.Host2, hdr, packet.TypeGM, size, iterations)
		return ChunkRow{ChunkBytes: cb, Latency: lat}, err
	})
	res.Rows = rows
	return res, err
}

// oneWayLatency sends iterations size-byte messages from src to dst
// over the wire route, each as soon as the previous one arrives, and
// returns the mean one-way latency.
func oneWayLatency(cl *Cluster, src, dst topology.NodeID, route []byte, typ packet.Type, size, iterations int) (units.Time, error) {
	var sum, start units.Time
	done := 0
	kick := func() {
		start = cl.Eng.Now()
		cl.Host(src).SendVia(dst, make([]byte, size), route, typ)
	}
	cl.Host(dst).OnMessage = func(_ topology.NodeID, _ []byte, t units.Time) {
		sum += t - start
		done++
		if done < iterations {
			kick()
		}
	}
	kick()
	cl.Eng.Run()
	if done != iterations {
		return 0, fmt.Errorf("core: one-way run finished %d of %d iterations", done, iterations)
	}
	return sum / units.Time(iterations), nil
}

// WriteTable renders the ablation.
func (r ChunkResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "SDMA chunk-size ablation (%d-byte messages, one way)\n", r.Size)
	fmt.Fprintf(w, "%12s %14s\n", "chunk(B)", "latency")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%d", row.ChunkBytes)
		if row.ChunkBytes == 0 {
			label = "whole"
		}
		fmt.Fprintf(w, "%12s %14s\n", label, row.Latency)
	}
}
