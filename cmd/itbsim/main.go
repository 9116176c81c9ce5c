// Command itbsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	itbsim -exp fig7                 # Figure 7: MCP code overhead
//	itbsim -exp fig8                 # Figure 8: per-ITB latency cost
//	itbsim -exp costs                # Section 5 cost breakdown
//	itbsim -exp throughput -switches 16
//	itbsim -exp latload    -switches 16
//	itbsim -exp bufpool
//	itbsim -exp itbcount
//	itbsim -exp ablation
//	itbsim -exp scaling              # ITB/UD ratio vs network size
//	itbsim -exp patterns             # by traffic pattern
//	itbsim -exp chunks               # SDMA chunk-size ablation
//	itbsim -exp faults               # fault campaigns: delivery + recovery
//	itbsim -exp recovery             # self-healing study: heartbeat period x churn
//	itbsim -exp recovery -detector gossip   # decentralized (SWIM) churn study
//	itbsim -exp engines              # routing-engine comparison across topology classes
//	itbsim -exp load                 # open-loop load study: SLO outputs per engine
//	itbsim -exp vc                   # VC ablation: in-transit buffers vs virtual lanes
//	itbsim -exp all
//
// The load study accepts -engine and -pattern to run a single routing
// engine or workload pattern (uniform, incast, outcast, alltoall,
// allreduce, rpc), and -seed for the topology/schedule seed.
//
// The engines study accepts -engine to run a single engine, -hosts to
// run a single nominal size, and -topofile to route a serialized
// topology instead of the generated grid. Unknown engines and
// topologies an engine cannot route (e.g. a disconnected sample) are
// rejected with a listing of the valid engines.
//
// Independent simulation runs are sharded across -workers goroutines
// (default: all cores); output is byte-identical at any worker count.
// -workers must be at least 1; anything lower is rejected.
//
// The faults and recovery studies accept -detector to choose the
// failure-detection plane: "monitor" (the centralized default) or
// "gossip" (decentralized SWIM-style probing with no monitor host).
//
// Observability flags: -metrics <file> writes the merged metrics
// snapshot (counters, queue high-water gauges, latency histograms) as
// deterministic JSON; -trace <file> writes the packet-lifecycle trace
// as JSON Lines; -pprof <file> writes a CPU profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/units"
)

// csvStudies are the experiments with a CSV form.
var csvStudies = []string{"fig7", "fig8", "itbcount", "engines", "recovery", "load", "vc"}

func main() {
	exp := flag.String("exp", "all", "experiment: fig7, fig8, costs, throughput, latload, bufpool, itbcount, ablation, scaling, patterns, roots, schemes, chunks, app, fidelity, trace, faults, recovery, engines, load, vc, all")
	switches := flag.Int("switches", 16, "switches in the irregular network (throughput/latload)")
	engineName := flag.String("engine", "all", "routing engine for the engines study (see -exp engines); \"all\" runs every registered engine")
	hosts := flag.Int("hosts", 0, "single nominal host count for the engines study (0 = the default 64/256/1024 grid)")
	topofile := flag.String("topofile", "", "serialized topology file routed by the engines study instead of the generated grid")
	pattern := flag.String("pattern", "all", "single workload pattern for the load study (uniform, incast, outcast, alltoall, allreduce, rpc); \"all\" runs the default set")
	seed := flag.Int64("seed", 5, "random seed for topology and traffic")
	iters := flag.Int("iters", 100, "gm_allsize iterations per message size")
	windowUs := flag.Int("window", 1000, "measurement window in microseconds (throughput/latload)")
	csvOut := flag.Bool("csv", false, "emit CSV data series instead of tables ("+strings.Join(csvStudies, ", ")+")")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines sharding independent simulation runs (output is identical at any value >= 1)")
	detectorName := flag.String("detector", "", "failure detector for the faults/recovery studies: monitor (centralized, the default) or gossip (decentralized SWIM)")
	period := flag.Int("period", 0, "single heartbeat period in microseconds for the recovery study (0 = the default period axis)")
	churn := flag.Int("churn", 0, "single churn-event count for the recovery study (0 = the default churn axis)")
	campaigns := flag.Int("campaigns", 0, "campaigns averaged into each recovery-study cell (0 = the default)")
	metricsOut := flag.String("metrics", "", "write the merged metrics snapshot of the instrumented experiments as JSON to this file (byte-identical at any -workers value)")
	traceOut := flag.String("trace", "", "write the packet-lifecycle trace of the instrumented experiments as JSON Lines to this file")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")
	flag.Parse()

	// Validate the concurrency knobs before anything runs: a worker
	// count below 1 used to flow straight into the runner, where it
	// silently meant "serial" at best and hung a sharded sweep at
	// worst. Reject it like an unknown -exp instead.
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "itbsim: -workers %d is invalid; need at least 1 worker goroutine\n", *workers)
		os.Exit(1)
	}
	runner.SetWorkers(*workers)

	// Reject unknown detectors the same way as unknown engines: name
	// the offender, list what is valid.
	detector, err := recovery.ParseDetectorKind(*detectorName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itbsim: %v\n", err)
		os.Exit(1)
	}

	if *hosts < 0 || *period < 0 || *churn < 0 || *campaigns < 0 {
		fmt.Fprintf(os.Stderr, "itbsim: -hosts/-period/-churn/-campaigns must be >= 0 (0 selects the study default)\n")
		os.Exit(1)
	}

	// Reject unknown engines before anything runs, mirroring the
	// unknown -exp error path: name the offender, list what is valid.
	if *engineName != "all" {
		if _, ok := routing.EngineByName(*engineName); !ok {
			fmt.Fprintf(os.Stderr, "itbsim: unknown engine %q; valid engines:\n%s",
				*engineName, routing.EngineList())
			os.Exit(1)
		}
	}

	// -metrics and -trace arm shared collectors; the instrumented
	// experiments (fig7, fig8, throughput, latload, itbcount, ablation,
	// faults, recovery, trace) merge their per-run state into them in
	// run order,
	// so the exported files are byte-identical at any worker count.
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(0)
	}

	// Failed experiments are collected rather than aborting the whole
	// invocation: with -exp all the remaining experiments still run,
	// and runner-dispatched sweeps report every failed run (tagged
	// with its index) instead of silently emitting partial results.
	// Any failure makes the exit status non-zero.
	type failure struct {
		name string
		err  error
	}
	var failures []failure
	matched := false
	var known []string
	run := func(name string, f func() error) {
		known = append(known, name)
		if *exp != "all" && *exp != name {
			return
		}
		matched = true
		if *csvOut && *exp == name && !slices.Contains(csvStudies, name) {
			// A named study with no CSV form is an error, not tables
			// on stdout; -exp all prints the others' tables as usual.
			failures = append(failures, failure{name, fmt.Errorf("no CSV form; the studies with one are: %s", strings.Join(csvStudies, " "))})
			return
		}
		if err := f(); err != nil {
			failures = append(failures, failure{name, err})
			fmt.Fprintf(os.Stderr, "itbsim: %s failed (continuing): %v\n", name, err)
			return
		}
		fmt.Println()
	}
	defer func() {
		if len(failures) == 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "\nitbsim: %d experiment(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", f.name, f.err)
		}
		os.Exit(1)
	}()

	// The profile-stop defer registers after the failure handler so it
	// runs first (LIFO) and the profile survives a failing exit.
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itbsim: -pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "itbsim: -pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "itbsim: -pprof: %v\n", err)
			}
		}()
	}

	run("fig7", func() error {
		cfg := core.DefaultFig7Config()
		cfg.Iterations = *iters
		cfg.Metrics = reg
		cfg.Trace = rec
		res, err := core.RunFig7(cfg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("fig8", func() error {
		cfg := core.DefaultFig8Config()
		cfg.Iterations = *iters
		cfg.Metrics = reg
		cfg.Trace = rec
		res, err := core.RunFig8(cfg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("costs", func() error {
		res, err := core.RunCostReport()
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	sweep := func(alg *routing.UpDownEngine) (core.SweepResult, error) {
		cfg := core.DefaultSweepConfig(alg, *switches, *seed)
		cfg.Window = units.Time(*windowUs) * units.Microsecond
		// Each sweep merges into the shared registry under its routing
		// prefix, so UD and ITB load points stay distinguishable.
		var sub *metrics.Registry
		if reg != nil {
			sub = metrics.NewRegistry()
			cfg.Metrics = sub
		}
		res, err := core.RunSweep(cfg)
		if reg != nil && err == nil {
			prefix := "ud."
			if alg.ITB {
				prefix = "itb."
			}
			reg.MergePrefixed(prefix, sub)
		}
		return res, err
	}

	run("throughput", func() error {
		ud, err := sweep(routing.UpDownRouting)
		if err != nil {
			return err
		}
		ud.WriteTable(os.Stdout)
		fmt.Println()
		itb, err := sweep(routing.ITBRouting)
		if err != nil {
			return err
		}
		itb.WriteTable(os.Stdout)
		if ud.Throughput > 0 {
			fmt.Printf("\nITB/UD throughput ratio: %.2fx (paper: easily doubled, sometimes tripled on large nets)\n",
				itb.Throughput/ud.Throughput)
		}
		return nil
	})

	run("latload", func() error {
		fmt.Println("Average latency vs offered load (uniform traffic)")
		fmt.Printf("%10s %16s %16s\n", "offered", "UD latency", "ITB latency")
		ud, err := sweep(routing.UpDownRouting)
		if err != nil {
			return err
		}
		itb, err := sweep(routing.ITBRouting)
		if err != nil {
			return err
		}
		for i := range ud.Points {
			fmt.Printf("%10.3f %16s %16s\n",
				ud.Points[i].Offered, ud.Points[i].AvgLatency, itb.Points[i].AvgLatency)
		}
		// Latency distributions at a moderate load (microseconds).
		for _, pair := range []struct {
			name string
			res  core.SweepResult
		}{{"UD", ud}, {"ITB", itb}} {
			for _, p := range pair.res.Points {
				if p.Offered != 0.3 || p.Latencies == nil || p.Latencies.N() == 0 {
					continue
				}
				us := p.Latencies.Scaled(1.0 / float64(units.Microsecond))
				fmt.Printf("\n%s latency distribution at offered load 0.3 (us):\n", pair.name)
				if err := us.WriteHistogram(os.Stdout, 10, 40); err != nil {
					return err
				}
			}
		}
		return nil
	})

	run("bufpool", func() error {
		res, err := core.RunBufPool(core.DefaultBufPoolConfig())
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("itbcount", func() error {
		res, err := core.RunITBCount(4, 64, 30, reg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("ablation", func() error {
		res, err := core.RunAblations([]int{64, 1024, 4096}, 20, reg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("scaling", func() error {
		res, err := core.RunScaling([]int{8, 16, 32}, *seed,
			units.Time(*windowUs)*units.Microsecond)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("patterns", func() error {
		res, err := core.RunPatternStudy(*switches, *seed,
			units.Time(*windowUs)*units.Microsecond)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("trace", func() error {
		// One ITB-routed message through the testbed, with the full
		// packet lifecycle dumped: the paper's Figure 4/5 control flow
		// made visible.
		res, err := core.RunTraceDemo()
		if err != nil {
			return err
		}
		if rec != nil {
			for _, e := range res.Events() {
				rec.Record(e)
			}
		}
		fmt.Println("Packet lifecycle of one in-transit message (host1 -> ITB host -> host2):")
		return res.WriteText(os.Stdout)
	})

	run("fidelity", func() error {
		res, err := core.RunModelFidelity(*switches, *seed,
			units.Time(*windowUs)*units.Microsecond)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("schemes", func() error {
		res, err := core.RunSchemes(*switches, *seed,
			units.Time(*windowUs)*units.Microsecond)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("app", func() error {
		cfg := core.DefaultAppStudyConfig()
		cfg.Switches = *switches
		cfg.Seed = *seed
		res, err := core.RunAppStudy(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("roots", func() error {
		res, err := core.RunRootStudy(*switches, *seed,
			units.Time(*windowUs)*units.Microsecond)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("chunks", func() error {
		res, err := core.RunChunkAblation(8192, []int{0, 32, 64, 256, 1024, 4096}, 20)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("faults", func() error {
		cfg := core.DefaultFaultStudyConfig(routing.ITBRouting, *switches, *seed)
		cfg.Metrics = reg
		cfg.Detector = detector
		res, err := core.RunFaultStudy(cfg)
		if err != nil {
			return err
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("engines", func() error {
		cfg := core.DefaultEngineStudyConfig(*seed)
		cfg.Metrics = reg
		if *engineName != "all" {
			cfg.Engines = []string{*engineName}
		}
		if *hosts > 0 {
			cfg.Sizes = []int{*hosts}
		}
		if *topofile != "" {
			text, err := os.ReadFile(*topofile)
			if err != nil {
				return err
			}
			cfg.TopoText = string(text)
			cfg.TopoLabel = filepath.Base(*topofile)
		}
		res, err := core.RunEngineStudy(cfg)
		if err != nil {
			// An engine refusing a topology (disconnected, no switches,
			// uncabled hosts) lists the registered engines, so the caller
			// can tell a bad engine choice from a bad topology.
			return fmt.Errorf("%w\nvalid engines:\n%s", err, routing.EngineList())
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("recovery", func() error {
		cfg := core.DefaultRecoveryStudyConfig(routing.ITBRouting, *switches, *seed)
		cfg.Metrics = reg
		cfg.Detector = detector
		// Grid-thinning knobs for scale runs: the nightly 1024-host
		// churn grid samples single cells rather than the full cross
		// product.
		if *period > 0 {
			cfg.Periods = []units.Time{units.Time(*period) * units.Microsecond}
		}
		if *churn > 0 {
			cfg.ChurnEvents = []int{*churn}
		}
		if *campaigns > 0 {
			cfg.CampaignsPerCell = *campaigns
		}
		res, err := core.RunRecoveryStudy(cfg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("load", func() error {
		cfg := core.DefaultLoadStudyConfig(*seed)
		cfg.Metrics = reg
		if *engineName != "all" {
			cfg.Engines = []string{*engineName}
		}
		if *pattern != "all" {
			cfg.Patterns = []string{*pattern}
		}
		res, err := core.RunLoadStudy(cfg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	run("vc", func() error {
		cfg := core.DefaultVCStudyConfig(*seed)
		cfg.Metrics = reg
		res, err := core.RunVCStudy(cfg)
		if err != nil {
			return err
		}
		if *csvOut {
			return res.WriteCSV(os.Stdout)
		}
		res.WriteTable(os.Stdout)
		return nil
	})

	if *exp != "all" && !matched {
		fmt.Fprintf(os.Stderr, "itbsim: unknown experiment %q; valid experiments: all %s\n",
			*exp, strings.Join(known, " "))
		os.Exit(1)
	}

	writeFile := func(flagName, path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			failures = append(failures, failure{flagName, err})
			fmt.Fprintf(os.Stderr, "itbsim: %s: %v\n", flagName, err)
		}
	}
	if reg != nil {
		writeFile("-metrics", *metricsOut, func(f *os.File) error {
			return reg.Snapshot().WriteJSON(f)
		})
	}
	if rec != nil {
		writeFile("-trace", *traceOut, func(f *os.File) error {
			return rec.WriteJSONL(f)
		})
	}
}
