// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (and per extension experiment in DESIGN.md). Each
// benchmark runs the corresponding experiment end to end and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. The benchmarks use reduced
// iteration counts and windows to stay fast; `cmd/itbsim` runs the
// full-size versions.
package repro_test

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mapper"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// gcCyclesPerOp starts counting the collections the process completes
// (the runtime/metrics counter /gc/cycles/total:gc-cycles). The
// function it returns reports them per op as gc-cycles/op, the
// guarded benchmarks' collections beside their allocs/op: call it at
// the end of the timed loop, or defer the call at its start.
func gcCyclesPerOp(b *testing.B) (report func()) {
	start := gcCycles()
	return func() { b.ReportMetric(float64(gcCycles()-start)/float64(b.N), "gc-cycles/op") }
}

func gcCycles() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// BenchmarkFig7_CodeOverhead regenerates Figure 7: per-packet latency
// overhead of the ITB-modified MCP vs the original, across message
// sizes. Paper: ~125 ns average, <300 ns max.
func BenchmarkFig7_CodeOverhead(b *testing.B) {
	defer gcCyclesPerOp(b)()
	var last core.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig7(core.Fig7Config{
			Sizes:      []int{1, 64, 1024, 4096},
			Iterations: 30,
			Warmup:     3,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgOverhead.Nanoseconds(), "ns-overhead/pkt")
	b.ReportMetric(last.MaxOverhead.Nanoseconds(), "ns-overhead-max")
}

// BenchmarkFig8_ITBOverhead regenerates Figure 8: per-ITB latency cost
// over matched 5-crossing paths. Paper: ~1.3 us per ITB.
func BenchmarkFig8_ITBOverhead(b *testing.B) {
	defer gcCyclesPerOp(b)()
	var last core.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig8(core.Fig8Config{
			Sizes:      []int{1, 64, 1024, 4096},
			Iterations: 30,
			Warmup:     3,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgOverhead.Nanoseconds(), "ns/ITB")
	b.ReportMetric(last.Rows[0].RelativePct, "pct-rel-short")
	b.ReportMetric(last.Rows[len(last.Rows)-1].RelativePct, "pct-rel-long")
}

// BenchmarkMCPCycleCosts regenerates the Section 5 in-text numbers:
// the firmware's component costs (detection ~275 ns, DMA programming
// ~200 ns in the authors' earlier estimates) and the measured
// end-to-end values.
func BenchmarkMCPCycleCosts(b *testing.B) {
	var last core.CostReport
	for i := 0; i < b.N; i++ {
		res, err := core.RunCostReport()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ITBDetect.Nanoseconds(), "ns-detect")
	b.ReportMetric(last.ProgramSendDMA.Nanoseconds(), "ns-program")
	b.ReportMetric(last.MeasuredPerPacket.Nanoseconds(), "ns-pkt-overhead")
	b.ReportMetric(last.MeasuredPerITB.Nanoseconds(), "ns-per-ITB")
}

// benchSweep runs a reduced throughput sweep.
func benchSweep(b *testing.B, alg *routing.UpDownEngine) core.SweepResult {
	b.Helper()
	cfg := core.DefaultSweepConfig(alg, 16, 5)
	cfg.Loads = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	cfg.Window = 500 * units.Microsecond
	cfg.Warmup = 50 * units.Microsecond
	res, err := core.RunSweep(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkThroughputSweep_UpDown regenerates the up*/down* half of
// the X-thr extension experiment (accepted traffic vs offered load).
func BenchmarkThroughputSweep_UpDown(b *testing.B) {
	var last core.SweepResult
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, routing.UpDownRouting)
	}
	b.ReportMetric(last.Throughput, "accepted-peak")
}

// BenchmarkThroughputSweep_ITB regenerates the ITB half. Paper (via
// the companion studies): throughput easily doubled on large nets.
func BenchmarkThroughputSweep_ITB(b *testing.B) {
	var last core.SweepResult
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, routing.ITBRouting)
	}
	b.ReportMetric(last.Throughput, "accepted-peak")
	b.ReportMetric(last.RouteStats.AvgITBs, "avg-ITBs/route")
}

// BenchmarkLatencyUnderLoad regenerates X-lat-load: average message
// latency below saturation for both routings. The paper argues the
// ITB detour stays negligible at load because blocked output ports
// dominate.
func BenchmarkLatencyUnderLoad(b *testing.B) {
	var udLat, itbLat units.Time
	for i := 0; i < b.N; i++ {
		mk := func(alg *routing.UpDownEngine) units.Time {
			cfg := core.DefaultSweepConfig(alg, 16, 5)
			cfg.Loads = []float64{0.3}
			cfg.Window = 500 * units.Microsecond
			cfg.Warmup = 50 * units.Microsecond
			res, err := core.RunSweep(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res.Points[0].AvgLatency()
		}
		udLat = mk(routing.UpDownRouting)
		itbLat = mk(routing.ITBRouting)
	}
	b.ReportMetric(udLat.Microseconds(), "us-UD")
	b.ReportMetric(itbLat.Microseconds(), "us-ITB")
}

// BenchmarkBufferPool regenerates X-bufpool: drop/retransmission
// behaviour of the proposed circular receive queue beyond saturation.
func BenchmarkBufferPool(b *testing.B) {
	var last core.BufPoolResult
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultBufPoolConfig()
		cfg.PoolSizes = []int{2, 8, 32}
		cfg.Window = 300 * units.Microsecond
		res, err := core.RunBufPool(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Points[0].DropRate, "pct-drop-pool2")
	b.ReportMetric(100*last.Points[len(last.Points)-1].DropRate, "pct-drop-pool32")
}

// BenchmarkITBCount regenerates the per-path ITB scaling ablation:
// latency grows ~linearly, ~1.3 us per in-transit hop.
func BenchmarkITBCount(b *testing.B) {
	var last core.ITBCountResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunITBCount(4, 64, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	rows := last.Rows
	b.ReportMetric(rows[len(rows)-1].ExtraPerITB.Nanoseconds(), "ns/ITB")
}

// BenchmarkAblationEarlyRecv quantifies the cut-through benefit of the
// Early Recv event vs store-and-forward detection.
func BenchmarkAblationEarlyRecv(b *testing.B) {
	var penalty units.Time
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblations([]int{4096}, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.Rows[0].Penalty
	}
	b.ReportMetric(penalty.Microseconds(), "us-penalty-4KB")
}

// BenchmarkAblationDispatch quantifies the paper's "avoid one
// dispatching cycle" optimisation in the re-injection path.
func BenchmarkAblationDispatch(b *testing.B) {
	var penalty units.Time
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblations([]int{64}, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.Rows[1].Penalty
	}
	b.ReportMetric(penalty.Nanoseconds(), "ns-penalty")
}

// BenchmarkScaling regenerates the network-size study: the ITB/UD
// throughput ratio grows with switch count toward the companion
// papers' 2-3x.
func BenchmarkScaling(b *testing.B) {
	var last core.ScalingResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunScaling([]int{8, 16}, 5, 400*units.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].Ratio, "ratio-8sw")
	b.ReportMetric(last.Rows[len(last.Rows)-1].Ratio, "ratio-16sw")
}

// BenchmarkPatternStudy regenerates the traffic-pattern sensitivity
// comparison.
func BenchmarkPatternStudy(b *testing.B) {
	var last core.PatternResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunPatternStudy(8, 7, 300*units.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Ratio, "ratio-"+row.Pattern.String())
	}
}

// BenchmarkRootStudy regenerates the root-sensitivity comparison: the
// ITB mechanism makes routing insensitive to the spanning-tree root.
func BenchmarkRootStudy(b *testing.B) {
	var last core.RootStudyResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunRootStudy(16, 13, 300*units.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if !row.Algorithm.ITB {
			name := "UD-hops-best-root"
			if row.Label == "worst root" {
				name = "UD-hops-worst-root"
			}
			b.ReportMetric(row.AvgHops, name)
		}
	}
}

// BenchmarkAblationChunkSize regenerates the SDMA chunk-size ablation
// (Figure 4's send-chunk pipeline).
func BenchmarkAblationChunkSize(b *testing.B) {
	var last core.ChunkResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunChunkAblation(8192, []int{0, 256, 1024}, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].Latency.Microseconds(), "us-whole")
	b.ReportMetric(last.Rows[len(last.Rows)-1].Latency.Microseconds(), "us-1KB-chunks")
}

// BenchmarkModelFidelity regenerates the channel-release-policy
// ablation: the ITB/UD conclusion must hold under both the
// conservative and the progressive wormhole models.
func BenchmarkModelFidelity(b *testing.B) {
	var last core.FidelityResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunModelFidelity(16, 5, 300*units.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.RatioConservative, "ratio-conservative")
	b.ReportMetric(last.RatioProgressive, "ratio-progressive")
}

// BenchmarkSchemes regenerates the companion-paper [3] comparison:
// {BFS, DFS} orderings x {UD, ITB} routings.
func BenchmarkSchemes(b *testing.B) {
	var last core.SchemesResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunSchemes(16, 5, 300*units.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		alg := "UD"
		if row.Algorithm.ITB {
			alg = "ITB"
		}
		b.ReportMetric(row.Throughput, "thr-"+row.Orientation+"-"+alg)
	}
}

// BenchmarkAppStudy regenerates the distributed-application study
// (the paper's future-work experiment): bulk-synchronous stride
// exchange completion time under both routings.
func BenchmarkAppStudy(b *testing.B) {
	var last core.AppStudyResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunAppStudy(core.AppStudyConfig{
			Switches: 16, Seed: 9, Supersteps: 8, MsgBytes: 4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup, "app-speedup")
	b.ReportMetric(last.Rows[0].PerStep.Microseconds(), "us-step-UD")
	b.ReportMetric(last.Rows[1].PerStep.Microseconds(), "us-step-ITB")
}

// speedupSweep is the workload for the serial-vs-parallel comparison:
// a full offered-load sweep whose points dispatch through the runner.
func speedupSweep(b *testing.B) {
	b.Helper()
	cfg := core.DefaultSweepConfig(routing.ITBRouting, 16, 5)
	cfg.Window = 400 * units.Microsecond
	cfg.Warmup = 50 * units.Microsecond
	if _, err := core.RunSweep(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepSerial pins the experiment runner to one worker: the
// pre-runner serial baseline.
func BenchmarkSweepSerial(b *testing.B) {
	runner.SetWorkers(1)
	defer runner.SetWorkers(0)
	defer gcCyclesPerOp(b)()
	for i := 0; i < b.N; i++ {
		speedupSweep(b)
	}
}

// BenchmarkSweepParallel shards the same sweep across all cores
// (runtime.NumCPU workers). The output is byte-identical to the
// serial run — see internal/core/parallel_test.go — only the wall
// clock changes; compare ns/op against BenchmarkSweepSerial for the
// speedup.
func BenchmarkSweepParallel(b *testing.B) {
	runner.SetWorkers(0) // runtime.NumCPU()
	defer gcCyclesPerOp(b)()
	for i := 0; i < b.N; i++ {
		speedupSweep(b)
	}
}

// BenchmarkMapperDiscovery measures the mapping protocol: probes and
// wall time to discover a 16-switch irregular network.
func BenchmarkMapperDiscovery(b *testing.B) {
	topo, err := topology.Generate(topology.DefaultGenConfig(16, 3))
	if err != nil {
		b.Fatal(err)
	}
	var probes int
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := fabric.New(eng, topo, fabric.DefaultParams())
		var mine *mcp.MCP
		for _, h := range topo.Hosts() {
			m := mcp.New(net, h, mcp.DefaultConfig(mcp.ITB))
			if mine == nil {
				mine = m
			}
		}
		res, err := mapper.New(mine, mapper.DefaultConfig()).Discover()
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Matches(topo); err != nil {
			b.Fatal(err)
		}
		probes = res.Probes
	}
	b.ReportMetric(float64(probes), "probes")
}

// BenchmarkAllsizePingPong measures the simulator's own speed driving
// the gm_allsize workload (simulated ping-pongs per second of real
// time).
func BenchmarkAllsizePingPong(b *testing.B) {
	topo, nodes := topology.Testbed()
	cl, err := core.NewCluster(core.DefaultConfig(topo, routing.UpDownRouting, mcp.ITB))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	defer gcCyclesPerOp(b)()
	_, err = gm.Allsize(cl.Eng, cl.Host(nodes.Host1), cl.Host(nodes.Host2), gm.AllsizeConfig{
		Sizes:      []int{64},
		Iterations: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRouteTableBuild measures mapper speed: full all-pairs ITB
// route computation on a 32-switch irregular network.
func BenchmarkRouteTableBuild(b *testing.B) {
	topo, err := topology.Generate(topology.DefaultGenConfig(32, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ITBRouting.BuildTable(topo, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7MetricsOff / BenchmarkFig7MetricsOn certify the
// zero-cost-when-disabled contract of internal/metrics: the hot paths
// (fabric delivery, MCP queueing) call their instruments
// unconditionally, so the disabled case must cost only nil checks.
// Compare the two to see the full price of enabling collection.
func BenchmarkFig7MetricsOff(b *testing.B) {
	benchFig7Metrics(b, false)
}

func BenchmarkFig7MetricsOn(b *testing.B) {
	benchFig7Metrics(b, true)
}

func benchFig7Metrics(b *testing.B, enabled bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := core.Fig7Config{Sizes: []int{1, 64, 1024, 4096}, Iterations: 30, Warmup: 3}
		if enabled {
			cfg.Metrics = metrics.NewRegistry()
		}
		if _, err := core.RunFig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryOff / BenchmarkRecoveryOn certify the
// zero-cost-when-disabled contract of internal/recovery: fault
// campaigns with Recovery=nil run exactly the pre-recovery code path
// (GM reliability only), so its allocation count is pinned by the
// bench gate. The On variant prices the full self-healing protocol —
// heartbeat probes, verification, epoch republish — for comparison.
func BenchmarkRecoveryOff(b *testing.B) {
	benchRecovery(b, false)
}

func BenchmarkRecoveryOn(b *testing.B) {
	benchRecovery(b, true)
}

func benchRecovery(b *testing.B, enabled bool) {
	b.Helper()
	b.ReportAllocs()
	defer gcCyclesPerOp(b)()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultFaultStudyConfig(routing.ITBRouting, 8, 3)
		cfg.Campaigns = 2
		cfg.FaultEvents = 4
		cfg.Horizon = 500 * units.Microsecond
		cfg.MessageSize = 256
		if !enabled {
			cfg.Recovery = nil
		}
		if _, err := core.RunFaultStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryChurn72 prices run-time rerouting around dead
// hosts: one churn-study cell on 18 switches (72 hosts) — heartbeat
// period 300 µs, 3 churn events, one campaign — under each detector.
// The monitor rebuilds and republishes epochs; every gossip agent
// rebuilds around its own dead set. The study's GM recovery knobs are
// the fault study's defaults (ack timeout 150 µs, backoff 2 capped at
// 2 ms, dead after 6 timeouts).
func BenchmarkRecoveryChurn72(b *testing.B) {
	b.ReportAllocs()
	defer gcCyclesPerOp(b)()
	for i := 0; i < b.N; i++ {
		for _, det := range []recovery.DetectorKind{recovery.DetectorMonitor, recovery.DetectorGossip} {
			cfg := core.DefaultRecoveryStudyConfig(routing.ITBRouting, 18, 3)
			cfg.Periods = []units.Time{300 * units.Microsecond}
			cfg.ChurnEvents = []int{3}
			cfg.CampaignsPerCell = 1
			cfg.Detector = det
			if _, err := core.RunRecoveryStudy(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUpDownITBTableDragonfly342 pins the host-pair route table
// build behind the 342-host Dragonfly cells: the updown-itb engine's
// BuildTable, 116 622 routes over 12 882 switch pairs, one in-transit
// Dijkstra per source switch. Besides the build it reports the heap a
// built table retains, per route (B/route).
func BenchmarkUpDownITBTableDragonfly342(b *testing.B) {
	topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(342))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	reportGC := gcCyclesPerOp(b)
	for i := 0; i < b.N; i++ {
		if _, err := routing.ITBRouting.BuildTable(topo, nil); err != nil {
			b.Fatal(err)
		}
	}
	reportGC()
	b.StopTimer()
	b.ReportMetric(tableRetainedPerRoute(b, topo), "B/route")
}

// tableRetainedPerRoute builds one updown-itb table on topo and returns
// the live heap it holds per route: the live heap after a collection
// with the table held, less the live heap before the build.
func tableRetainedPerRoute(b *testing.B, topo *topology.Topology) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(tbl.Len())
	runtime.KeepAlive(tbl)
	return perRoute
}

// BenchmarkEngineTableBuild1024 times the engines study's per-cell
// work at the scale it runs at: a 1024-host fat-tree, every registered
// engine's all-pairs switch paths searched, certified legal and
// deadlock free, and analysed (CertifyEngine). The 4096-host cells of
// the property suite are ~4x this work per engine.
func BenchmarkEngineTableBuild1024(b *testing.B) {
	topo, err := topology.FatTree(topology.DefaultFatTreeConfig(1024))
	if err != nil {
		b.Fatal(err)
	}
	engines := routing.Engines()
	b.ReportAllocs()
	b.ResetTimer()
	defer gcCyclesPerOp(b)()
	var bytesTotal int
	for i := 0; i < b.N; i++ {
		bytesTotal = 0
		for _, eng := range engines {
			an, err := routing.CertifyEngine(eng, topo)
			if err != nil {
				b.Fatal(err)
			}
			bytesTotal += an.TableBytes
		}
	}
	b.ReportMetric(float64(bytesTotal), "table-bytes")
}

// BenchmarkLoadStudySmall runs a trimmed open-loop load study — one
// fat-tree preset, two engines, the uniform plan, the ring collective
// and the RPC mesh at a single offered load — end to end through the
// parallel runner. It is the bench-gate guard for the workload plane:
// a regression in the arrival generators, schedule compilation or the
// closed-loop drivers shows up here before it slows `itbsim -exp
// load` by minutes.
func BenchmarkLoadStudySmall(b *testing.B) {
	cfg := core.DefaultLoadStudyConfig(5)
	cfg.Presets = []string{"fattree-16"}
	cfg.Engines = []string{"updown-itb", "minimal-escape"}
	cfg.Patterns = []string{"uniform", "allreduce", "rpc"}
	cfg.Loads = []float64{0.3}
	cfg.Window = 150 * units.Microsecond
	cfg.Warmup = 30 * units.Microsecond
	cfg.VectorLen = 64
	b.ReportAllocs()
	b.ResetTimer()
	defer gcCyclesPerOp(b)()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := core.RunLoadStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "cells")
}

// BenchmarkFig7Lanes1 / BenchmarkFig7Lanes2 price the virtual-channel
// storage layer on the paper's Figure 7 ping-pong: the same testbed
// allsize exchange with the fabric sized to one lane (the pre-VC
// layout, byte-identical channel indexing) and to two lanes (doubled
// flit-buffer storage, lane-qualified arbitration). Routes stay on
// lane 0 in both, so the pair isolates the cost of carrying the lane
// dimension itself; the bench gate pins both ns/op and allocs/op, and
// the fabric AllocsPerRun tests pin the hot path at exactly zero.
func BenchmarkFig7Lanes1(b *testing.B) {
	benchFig7Lanes(b, 1)
}

func BenchmarkFig7Lanes2(b *testing.B) {
	benchFig7Lanes(b, 2)
}

func benchFig7Lanes(b *testing.B, lanes int) {
	b.Helper()
	b.ReportAllocs()
	defer gcCyclesPerOp(b)()
	for i := 0; i < b.N; i++ {
		topo, nodes := topology.Testbed()
		ccfg := core.DefaultConfig(topo, routing.UpDownRouting, mcp.ITB)
		ccfg.Fabric.Lanes = lanes
		cl, err := core.NewCluster(ccfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gm.Allsize(cl.Eng, cl.Host(nodes.Host1), cl.Host(nodes.Host2), gm.AllsizeConfig{
			Sizes:      []int{1, 64, 1024, 4096},
			Iterations: 30,
			Warmup:     3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCAblationSweep runs a trimmed virtual-channel ablation —
// the Dragonfly preset, all three arms (itb / vc / itb+vc) at one and
// two lanes — end to end through the parallel runner. It is the
// bench-gate guard for the VC route search (the layered Dijkstra over
// (switch, phase, lane) states), the lane-aware deadlock certifier and
// the laned fabric under real traffic.
func BenchmarkVCAblationSweep(b *testing.B) {
	cfg := core.DefaultVCStudyConfig(5)
	cfg.Presets = []string{"dragonfly-72"}
	cfg.LaneCounts = []int{1, 2}
	cfg.Window = 100 * units.Microsecond
	cfg.Warmup = 20 * units.Microsecond
	b.ReportAllocs()
	b.ResetTimer()
	defer gcCyclesPerOp(b)()
	var itbs uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunVCStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		itbs = 0
		for _, r := range res.Rows {
			itbs += uint64(r.ITBs)
		}
	}
	b.ReportMetric(float64(itbs), "itbs")
}
