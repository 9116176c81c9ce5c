package core

import (
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// LoadStudyConfig drives the open-loop workload study: offered load x
// traffic pattern x routing engine, on regular datacenter topologies,
// reporting the SLO-style outputs (p50/p99/p999 flow-completion time,
// goodput, delivered-vs-offered saturation) the paper's closed-loop
// evaluation could not see.
type LoadStudyConfig struct {
	// Presets name the topologies as "<class>-<hosts>", e.g.
	// "fattree-16" or "dragonfly-72"; classes are those of the engine
	// study (irregular, fattree, dragonfly).
	Presets []string
	// Engines filters the routing engines; default all registered.
	Engines []string
	// Patterns are the workload scenarios: the open-loop plans
	// (uniform, incast, outcast, alltoall) plus the two closed-loop
	// drivers (allreduce, rpc).
	Patterns []string
	// Loads is the offered-load axis, per active sender.
	Loads []float64
	// Sizes selects the flow-size mix of the open-loop plans.
	Sizes workload.SizeMixConfig
	// Window is the measurement interval; Warmup is discarded
	// start-up time.
	Window, Warmup units.Time
	// Fanin bounds incast senders / outcast receivers (0 = all).
	Fanin int
	// VectorLen is the allreduce vector length in 32-bit words.
	VectorLen int
	// Fanout is the RPC fan-out degree.
	Fanout int
	// Seed makes topologies and schedules reproducible.
	Seed int64
	// Metrics, when non-nil, receives each cell's merged counters
	// under the "<preset>.<pattern>.<engine>.load<NNN>." prefix, in
	// cell order.
	Metrics *metrics.Registry
}

// loadPatterns are the valid pattern names in CLI order.
var loadPatterns = []string{"uniform", "incast", "outcast", "alltoall", "allreduce", "rpc"}

// DefaultLoadStudyConfig returns the standard saturation grid: the
// smallest fat-tree and Dragonfly presets, every engine, the headline
// patterns, three load points across the knee.
func DefaultLoadStudyConfig(seed int64) LoadStudyConfig {
	return LoadStudyConfig{
		Presets:   []string{"fattree-16", "dragonfly-72"},
		Engines:   routing.EngineNames(),
		Patterns:  []string{"uniform", "incast", "allreduce", "rpc"},
		Loads:     []float64{0.2, 0.5, 0.8},
		Sizes:     workload.SizeMixConfig{Kind: "websearch"},
		Window:    250 * units.Microsecond,
		Warmup:    50 * units.Microsecond,
		VectorLen: 256,
		Fanout:    4,
		Seed:      seed,
	}
}

// LoadRow is one (preset, pattern, engine, load) cell.
type LoadRow struct {
	Preset  string
	Pattern string
	Engine  string
	Hosts   int
	// Offered is the configured load per active sender; Delivered is
	// the measured goodput per active sender, both as fractions of
	// link bandwidth. Their divergence is the saturation signal.
	Offered   float64
	Delivered float64
	// FlowsSent counts flows (or RPCs, or collective hops expected)
	// inside the window; FlowsDone those that completed; Rejected the
	// RPCs refused admission by GM backpressure.
	FlowsSent, FlowsDone, Rejected uint64
	// P50/P99/P999 are flow-completion-time percentiles.
	P50, P99, P999 units.Time
	// Collective is the allreduce completion time (0 elsewhere).
	Collective units.Time
}

// LoadStudyResult is the full study.
type LoadStudyResult struct {
	Config LoadStudyConfig
	// SizesName and SizesMean describe the resolved flow-size mix.
	SizesName string
	SizesMean float64
	Rows      []LoadRow
}

// parseLoadPreset splits "<class>-<hosts>" and builds the topology.
func parseLoadPreset(preset string, seed int64) (*topology.Topology, error) {
	i := strings.LastIndex(preset, "-")
	if i <= 0 || i == len(preset)-1 {
		return nil, fmt.Errorf("core: load preset %q is not <class>-<hosts>", preset)
	}
	hosts, err := strconv.Atoi(preset[i+1:])
	if err != nil || hosts < 2 {
		return nil, fmt.Errorf("core: load preset %q has a bad host count", preset)
	}
	return engineStudyTopology(preset[:i], hosts, seed)
}

// presetTexts builds and serializes each preset once.
func presetTexts(presets []string, seed int64) (map[string][]byte, error) {
	texts := make(map[string][]byte, len(presets))
	for _, preset := range presets {
		text, err := topoText(parseLoadPreset(preset, seed))
		if err != nil {
			return nil, err
		}
		texts[preset] = text
	}
	return texts, nil
}

// loadCellSpec is one runner work item.
type loadCellSpec struct {
	preset   string
	pattern  string
	engine   string
	load     float64
	topoText []byte
}

// RunLoadStudy executes the grid through the parallel runner. Every
// cell is an independent simulation over its own topology copy;
// rows and metrics merge in grid order, so the study is byte-identical
// at any worker count.
func RunLoadStudy(cfg LoadStudyConfig) (LoadStudyResult, error) {
	res := LoadStudyResult{Config: cfg}
	if len(cfg.Engines) == 0 {
		cfg.Engines = routing.EngineNames()
	}
	for _, name := range cfg.Engines {
		if _, ok := routing.EngineByName(name); !ok {
			return res, fmt.Errorf("core: unknown routing engine %q", name)
		}
	}
	for _, p := range cfg.Patterns {
		known := false
		for _, v := range loadPatterns {
			if p == v {
				known = true
			}
		}
		if !known {
			return res, fmt.Errorf("core: unknown load pattern %q (valid: %s)", p, strings.Join(loadPatterns, " "))
		}
	}
	if len(cfg.Presets) == 0 || len(cfg.Patterns) == 0 || len(cfg.Loads) == 0 {
		return res, fmt.Errorf("core: load study needs presets, patterns and loads")
	}
	if cfg.Window <= 0 || cfg.Warmup < 0 {
		return res, fmt.Errorf("core: load study needs a positive window and non-negative warmup")
	}
	mix, err := workload.NewSizeMix(cfg.Sizes)
	if err != nil {
		return res, err
	}
	res.SizesName = mix.Name()
	res.SizesMean = mix.MeanBytes()

	topoTexts, err := presetTexts(cfg.Presets, cfg.Seed)
	if err != nil {
		return res, err
	}
	var specs []loadCellSpec
	for _, preset := range cfg.Presets {
		for _, pattern := range cfg.Patterns {
			for _, engine := range cfg.Engines {
				for _, load := range cfg.Loads {
					specs = append(specs, loadCellSpec{
						preset: preset, pattern: pattern, engine: engine,
						load: load, topoText: topoTexts[preset],
					})
				}
			}
		}
	}
	res.Rows, err = runCells(specs, runObs{reg: cfg.Metrics}, func(i int, _ LoadRow) string {
		s := specs[i]
		return fmt.Sprintf("%s.%s.%s.load%03d.", s.preset, s.pattern, s.engine, int(s.load*100+0.5))
	}, func(s loadCellSpec, obs runObs) (LoadRow, error) {
		return runLoadCell(cfg, mix, s, obs)
	})
	return res, err
}

// variantFor is the one firmware rule: stock up*/down* runs the
// original MCP, and every other engine runs the ITB firmware.
func variantFor(eng routing.Engine) mcp.Variant {
	if ud, ok := eng.(*routing.UpDownEngine); ok && !ud.ITB {
		return mcp.Original
	}
	return mcp.ITB
}

// loadCluster builds a loaded cell's cluster on a private copy of the
// serialized topology, under eng, with lanes virtual lanes per link
// (0 takes the engine's own count) and, when progressive is set,
// tail-passing channel release. Windowed cells measure the raw
// network (acks off); the closed-loop drivers need GM reliability so
// a collective token or RPC reply cannot be silently lost. Every cell
// gets the paper's proposed buffer pool: with the faithful two
// blocking receive buffers, an in-transit packet pins a buffer until
// its re-injection drains, which breaks the consumption assumption
// behind the deadlock-freedom argument and wedges a loaded ITB network
// (section 4). All engines get the same pool for fairness.
func loadCluster(topoText []byte, eng routing.Engine, lanes int, acks, progressive bool, obs runObs) (*Cluster, error) {
	topo, err := readTopo(topoText)
	if err != nil {
		return nil, err
	}
	ccfg := DefaultConfig(topo, eng, variantFor(eng))
	ccfg.Fabric.Lanes = lanes
	ccfg.Fabric.ProgressiveRelease = progressive
	ccfg.GM.DisableAcks = !acks
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 64
	obs.install(&ccfg)
	return NewCluster(ccfg)
}

// runLoadCell dispatches on the pattern family.
func runLoadCell(cfg LoadStudyConfig, mix *workload.Mix, s loadCellSpec, obs runObs) (LoadRow, error) {
	eng, _ := routing.EngineByName(s.engine) // RunLoadStudy validated the name
	switch s.pattern {
	case "allreduce":
		return runLoadCollective(cfg, mix, s, eng, obs)
	case "rpc":
		return runLoadRPC(cfg, s, eng, obs)
	default:
		return runLoadPlan(cfg, mix, s, eng, obs)
	}
}

// fctPercentiles returns the p50, p99 and p999 flow-completion times
// (zero without samples).
func fctPercentiles(lat *stats.Summary) (p50, p99, p999 units.Time) {
	if lat.N() == 0 {
		return 0, 0, 0
	}
	return units.Time(lat.Percentile(50)), units.Time(lat.Percentile(99)), units.Time(lat.Percentile(99.9))
}

// runOpenLoop is the one open-loop traffic cell. It injects every
// flow of a compiled plan at its absolute start time, regardless of
// what came before, and runs the built cluster until until (zero
// drains the engine). Flow i carries i in its first eight payload
// bytes; onDeliver, when non-nil, sees each flow's first delivery, in
// event order. It returns each flow's delivery count and whether its
// sender reported it failed or refused it (dead peer, no route).
func runOpenLoop(cl *Cluster, flows []workload.Flow, until units.Time, onDeliver func(i int, t units.Time)) (deliveries []int, failed []bool) {
	deliveries, failed = make([]int, len(flows)), make([]bool, len(flows))
	for _, h := range cl.Topo.Hosts() {
		cl.Host(h).OnMessage = func(_ topology.NodeID, payload []byte, t units.Time) {
			i := int(binary.LittleEndian.Uint64(payload))
			if deliveries[i]++; deliveries[i] == 1 && onDeliver != nil {
				onDeliver(i, t)
			}
		}
	}
	// Each flow's start is scheduled with a pointer to its index, and
	// its failure comes back to one callback with the index as context,
	// so the schedule allocates nothing per flow.
	fail := func(i int) { failed[i] = true }
	send := func(arg any) {
		i := *arg.(*int)
		f := flows[i]
		payload := make([]byte, f.Bytes)
		binary.LittleEndian.PutUint64(payload, uint64(i))
		if err := cl.Host(f.Src).SendTracked(f.Dst, payload, nil, fail, i); err != nil {
			failed[i] = true
		}
	}
	idx := make([]int, len(flows))
	for i, f := range flows {
		idx[i] = i
		cl.Eng.ScheduleArgAt(f.Start, send, &idx[i])
	}
	if until > 0 {
		cl.Eng.RunUntil(until)
	} else {
		cl.Eng.Run()
	}
	return deliveries, failed
}

// openLoopCell is what one windowed cell measures: the flows started
// inside the window, those of them that completed by the drain margin,
// their goodput per active sender as a fraction of link bandwidth, and
// their completion times.
type openLoopCell struct {
	sent, done uint64
	delivered  float64
	fct        *stats.Summary
}

// measureOpenLoop is the one reduction of the loaded studies. It
// compiles plan over the window, with the horizon and link bandwidth
// set from the window and the cluster, and runs it through runOpenLoop
// to the window end plus half a window.
func measureOpenLoop(cl *Cluster, plan workload.PlanConfig, warmup, window units.Time) (openLoopCell, error) {
	endAt := warmup + window
	plan.Horizon = endAt
	plan.LinkBandwidth = cl.Net.Params().LinkBandwidth
	flows, err := workload.Plan(cl.Topo, plan)
	if err != nil {
		return openLoopCell{}, err
	}
	c := openLoopCell{fct: &stats.Summary{}}
	senders := map[topology.NodeID]bool{}
	for _, f := range flows {
		senders[f.Src] = true
		if f.Start >= warmup {
			c.sent++
		}
	}
	var deliveredBytes uint64
	runOpenLoop(cl, flows, endAt+window/2, func(i int, t units.Time) {
		f := flows[i]
		if f.Start < warmup {
			return
		}
		// Goodput counts deliveries inside the window; the FCT tail
		// keeps collecting through the drain margin — tails are
		// exactly the flows that outlive the window.
		if t <= endAt {
			deliveredBytes += uint64(f.Bytes)
		}
		c.done++
		c.fct.Add(float64(t - f.Start))
	})
	c.delivered = float64(deliveredBytes) / window.Seconds() /
		float64(len(senders)) / float64(plan.LinkBandwidth)
	return c, nil
}

// openCell is the one windowed open-loop cell every loaded study runs:
// the load study's plans, the VC ablation and every sweep-study point.
// Its fields are loadCluster's and measureOpenLoop's arguments.
type openCell struct {
	topoText       []byte
	eng            routing.Engine
	lanes          int
	progressive    bool
	plan           workload.PlanConfig
	warmup, window units.Time
}

// run builds the cell's cluster with loadCluster, measures it with
// measureOpenLoop and publishes its end-of-run counters; it returns
// the cluster for the caller's own readings.
func (c openCell) run(obs runObs) (openLoopCell, *Cluster, error) {
	cl, err := loadCluster(c.topoText, c.eng, c.lanes, false, c.progressive, obs)
	if err != nil {
		return openLoopCell{}, nil, err
	}
	m, err := measureOpenLoop(cl, c.plan, c.warmup, c.window)
	if err != nil {
		return openLoopCell{}, nil, err
	}
	obs.finish(cl)
	return m, cl, nil
}

// runLoadPlan executes one open-loop scenario cell.
func runLoadPlan(cfg LoadStudyConfig, mix *workload.Mix, s loadCellSpec, eng routing.Engine, obs runObs) (LoadRow, error) {
	scenario, err := workload.ScenarioByName(s.pattern)
	if err != nil {
		return LoadRow{}, err
	}
	c, cl, err := openCell{topoText: s.topoText, eng: eng, plan: workload.PlanConfig{
		Scenario: scenario, Load: s.load, Sizes: mix, Seed: cfg.Seed + 1, Fanin: cfg.Fanin,
	}, warmup: cfg.Warmup, window: cfg.Window}.run(obs)
	if err != nil {
		return LoadRow{}, err
	}
	row := LoadRow{Preset: s.preset, Pattern: s.pattern, Engine: s.engine,
		Hosts: len(cl.Topo.Hosts()), Offered: s.load,
		Delivered: c.delivered, FlowsSent: c.sent, FlowsDone: c.done}
	row.P50, row.P99, row.P999 = fctPercentiles(c.fct)
	return row, nil
}

// runLoadCollective runs the promoted allreduce driver: the
// collective starts after warmup over a network already carrying
// open-loop uniform background traffic at the offered load; every
// collective hop is an FCT sample and the completion time is the
// headline. Its background generator is the one loaded-traffic source
// outside the windowed cell: it ticks until the collective completes,
// not over a window, so it has no plan to compile and no window to
// reduce over.
func runLoadCollective(cfg LoadStudyConfig, mix *workload.Mix, s loadCellSpec, eng routing.Engine, obs runObs) (LoadRow, error) {
	cl, err := loadCluster(s.topoText, eng, 0, true, false, obs)
	if err != nil {
		return LoadRow{}, err
	}
	hosts := cl.Topo.Hosts()
	row := LoadRow{Preset: s.preset, Pattern: s.pattern, Engine: s.engine,
		Hosts: len(hosts), Offered: s.load}
	var lat stats.Summary
	var bgBytes uint64

	ccfg := workload.CollectiveConfig{
		VectorLen: cfg.VectorLen,
		Port:      1, SendTokens: 4, RecvTokens: 8,
		OnHop: func(latency, _ units.Time) { lat.Add(float64(latency)) },
	}
	var coll *workload.Collective
	cl.Eng.Schedule(cfg.Warmup, func() {
		c, err := workload.StartAllreduce(cl.Eng, hosts, cl.Host, ccfg)
		if err != nil {
			panic(err)
		}
		coll = c
	})

	// Background: every host offers open-loop uniform traffic from
	// t=0 until the collective completes, through a dedicated GM port
	// with finite send tokens. An arrival finding no free token is
	// shed at admission — GM's own pacing backpressure — so overload
	// shows up as a delivered-vs-offered gap instead of an unbounded
	// queue the collective token would starve behind forever.
	dests, err := workload.NewDestinations(hosts, workload.Uniform, 0, rand.New(rand.NewSource(cfg.Seed+2)))
	if err != nil {
		return LoadRow{}, err
	}
	mean, err := workload.MeanGap(s.load, mix.MeanBytes(), cl.Net.Params().LinkBandwidth)
	if err != nil {
		return LoadRow{}, err
	}
	const bgPort, bgTokens = 2, 8
	// Every background send reads a prefix of one zero slab: GM only
	// reads a payload, so the cell's senders share it.
	maxBytes := 0
	for _, b := range mix.Buckets() {
		maxBytes = max(maxBytes, b.Bytes)
	}
	zeros := make([]byte, maxBytes)
	for i, h := range hosts {
		bp, err := cl.Host(h).OpenPort(bgPort, bgTokens)
		if err != nil {
			return LoadRow{}, err
		}
		bp.ProvideReceiveTokens(2 * bgTokens)
		bp.OnReceive = func(_ topology.NodeID, _ uint8, payload []byte, t units.Time) {
			bp.ProvideReceiveTokens(1)
			if t >= cfg.Warmup && (coll == nil || !coll.Done()) {
				bgBytes += uint64(len(payload))
			}
		}
		ap, err := workload.NewArrival(mean, rand.New(rand.NewSource(cfg.Seed+3+1000003*int64(i+1))))
		if err != nil {
			return LoadRow{}, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ (0x9E3779B9 * int64(i+1))))
		var tick func()
		tick = func() {
			if coll != nil && coll.Done() {
				return
			}
			dst := dests.Next(i)
			// An arrival finding no free token is shed: a refused Send
			// has no side effects. The size draw is consumed either
			// way, so the offered schedule is identical whether or not
			// admission succeeds.
			_ = bp.Send(dst, bgPort, zeros[:mix.Sample(rng)])
			cl.Eng.Schedule(ap.Next(), tick)
		}
		cl.Eng.Schedule(ap.Next(), tick)
	}

	// The collective must finish inside a generous deadline; a wedged
	// token is an error, not a silent zero row. The slack is real: an
	// engine without in-transit buffers on a loaded Dragonfly is two
	// orders of magnitude slower than the ITB engines, and that
	// number is the study's point, not a failure. The error reports
	// GM and fabric progress: events are still queued at the
	// deadline, so waiters in the fabric would not show a cycle.
	deadline := cfg.Warmup + 4000*cfg.Window
	cl.Eng.RunUntil(deadline)
	if coll == nil || !coll.Done() {
		hops := 0
		if coll != nil {
			hops = coll.Hops()
		}
		var retransmits, dups uint64
		for _, h := range hosts {
			st := cl.Host(h).Stats()
			retransmits += st.Retransmits
			dups += st.DuplicateDrops
		}
		return LoadRow{}, fmt.Errorf("core: %s/%s allreduce did not complete by %v under load %.2f (%d hops delivered; GM %d retransmits, %d duplicate drops; fabric %d deliveries)",
			s.preset, s.engine, deadline, s.load, hops, retransmits, dups, cl.Net.Stats().Delivered)
	}
	if got, want := coll.Checksum(), workload.ExpectedChecksum(len(hosts), cfg.VectorLen); got != want {
		return LoadRow{}, fmt.Errorf("core: %s/%s allreduce checksum %d, want %d", s.preset, s.engine, got, want)
	}
	span := coll.DoneAt() - cfg.Warmup
	row.Collective = span
	expectHops := 2 * (len(hosts) - 1)
	row.FlowsSent = uint64(expectHops)
	row.FlowsDone = uint64(coll.Hops())
	row.P50, row.P99, row.P999 = fctPercentiles(&lat)
	row.Delivered = float64(bgBytes) / span.Seconds() /
		float64(len(hosts)) / float64(cl.Net.Params().LinkBandwidth)
	obs.finish(cl)
	return row, nil
}

// runLoadRPC runs the fan-out service cell.
func runLoadRPC(cfg LoadStudyConfig, s loadCellSpec, eng routing.Engine, obs runObs) (LoadRow, error) {
	cl, err := loadCluster(s.topoText, eng, 0, true, false, obs)
	if err != nil {
		return LoadRow{}, err
	}
	endAt := cfg.Warmup + cfg.Window
	hosts := cl.Topo.Hosts()
	mesh, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, workload.RPCConfig{
		Fanout:        cfg.Fanout,
		RequestBytes:  128,
		ReplyBytes:    512,
		Load:          s.load,
		Seed:          cfg.Seed + 4,
		Warmup:        cfg.Warmup,
		Horizon:       endAt,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	})
	if err != nil {
		return LoadRow{}, err
	}
	// RPC round trips under load run several windows long; injection
	// stops at the horizon but in-flight RPCs get a generous drain so
	// "completed" means completed, not merely truncated.
	cl.Eng.RunUntil(endAt + 8*cfg.Window)
	st := mesh.Stats()
	row := LoadRow{Preset: s.preset, Pattern: s.pattern, Engine: s.engine,
		Hosts: len(hosts), Offered: s.load,
		FlowsSent: st.Issued, FlowsDone: st.Completed, Rejected: st.Rejected}
	row.P50, row.P99, row.P999 = fctPercentiles(st.FCT)
	row.Delivered = float64(st.DeliveredBytes) / cfg.Window.Seconds() /
		float64(len(hosts)) / float64(cl.Net.Params().LinkBandwidth)
	obs.finish(cl)
	return row, nil
}

// WriteTable renders the study grouped by (preset, pattern) cell.
func (r LoadStudyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Load study: open-loop workload plane (SLO outputs per routing engine)\n")
	fmt.Fprintf(w, "arrival %s, sizes %s (mean %.0fB), window %s after %s warmup\n",
		workload.Poisson, r.SizesName, r.SizesMean, r.Config.Window, r.Config.Warmup)
	fmt.Fprintf(w, "%-14s %-9s %-15s %7s %8s %6s %6s %5s %10s %10s %10s %11s\n",
		"preset", "pattern", "engine", "offered", "delivrd", "sent", "done", "rej",
		"p50", "p99", "p999", "collective")
	prev := ""
	for _, row := range r.Rows {
		key := row.Preset + "/" + row.Pattern
		if prev != "" && key != prev {
			fmt.Fprintln(w)
		}
		prev = key
		p50, p99, p999, coll := "-", "-", "-", "-"
		if row.P50 > 0 {
			p50, p99, p999 = row.P50.String(), row.P99.String(), row.P999.String()
		}
		if row.Collective > 0 {
			coll = row.Collective.String()
		}
		fmt.Fprintf(w, "%-14s %-9s %-15s %7.2f %8.3f %6d %6d %5d %10s %10s %10s %11s\n",
			row.Preset, row.Pattern, row.Engine, row.Offered, row.Delivered,
			row.FlowsSent, row.FlowsDone, row.Rejected, p50, p99, p999, coll)
	}
	fmt.Fprintf(w, "\ndelivered tracking offered means the fabric absorbed the load; the gap and\n")
	fmt.Fprintf(w, "the p99/p999 tail growth locate each engine's saturation point per pattern.\n")
}

// WriteCSV emits the rows for external plotting.
func (r LoadStudyResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"preset", "pattern", "engine", "hosts", "offered", "delivered",
		"flows_sent", "flows_done", "rejected",
		"p50_us", "p99_us", "p999_us", "collective_us",
	}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Preset, row.Pattern, row.Engine,
			fmt.Sprintf("%d", row.Hosts),
			fmt.Sprintf("%.4f", row.Offered),
			fmt.Sprintf("%.6f", row.Delivered),
			fmt.Sprintf("%d", row.FlowsSent),
			fmt.Sprintf("%d", row.FlowsDone),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%.3f", float64(row.P50)/float64(units.Microsecond)),
			fmt.Sprintf("%.3f", float64(row.P99)/float64(units.Microsecond)),
			fmt.Sprintf("%.3f", float64(row.P999)/float64(units.Microsecond)),
			fmt.Sprintf("%.3f", float64(row.Collective)/float64(units.Microsecond)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
