// Command itbsim runs the paper's experiments and prints their tables.
// The experiments are the entries of core.Studies, run in table order
// by -exp all.
//
// Usage:
//
//	itbsim -exp fig7                 # Figure 7: MCP code overhead
//	itbsim -exp fig8                 # Figure 8: per-ITB latency cost
//	itbsim -exp costs                # Section 5 cost breakdown
//	itbsim -exp throughput -switches 16   # accepted traffic and latency vs load
//	itbsim -exp bufpool
//	itbsim -exp itbcount
//	itbsim -exp ablation
//	itbsim -exp scaling              # ITB/UD ratio vs network size
//	itbsim -exp sensitivity          # ITB gain vs pattern, release, ordering, root
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
// -workers, -iters, -window and -switches must be at least 1; anything
// lower is rejected before any study runs.
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
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	all := core.Studies()
	var names, csvNames []string
	for _, s := range all {
		names = append(names, s.Name)
		if s.CSV {
			csvNames = append(csvNames, s.Name)
		}
	}
	var p core.Params
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", all")
	flag.IntVar(&p.Switches, "switches", 16, "switches in the irregular network (throughput, sensitivity, app, faults, recovery)")
	flag.StringVar(&p.Engine, "engine", "all", "routing engine for the engines and load studies; \"all\" runs every registered engine")
	flag.IntVar(&p.Hosts, "hosts", 0, "single nominal host count for the engines study (0 = the default 64/256/1024 grid)")
	flag.StringVar(&p.TopoFile, "topofile", "", "serialized topology file routed by the engines study instead of the generated grid")
	flag.StringVar(&p.Pattern, "pattern", "all", "single workload pattern for the load study (uniform, incast, outcast, alltoall, allreduce, rpc); \"all\" runs the default set")
	flag.Int64Var(&p.Seed, "seed", 5, "random seed for topology and traffic")
	flag.IntVar(&p.Iters, "iters", 100, "gm_allsize iterations per message size (fig7, fig8)")
	windowUs := flag.Int("window", 1000, "measurement window in microseconds (throughput, scaling, sensitivity)")
	csvOut := flag.Bool("csv", false, "emit CSV data series instead of tables ("+strings.Join(csvNames, ", ")+")")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines sharding independent simulation runs (output is identical at any value >= 1)")
	detectorName := flag.String("detector", "", "failure detector for the faults/recovery studies: monitor (centralized, the default) or gossip (decentralized SWIM)")
	period := flag.Int("period", 0, "single heartbeat period in microseconds for the recovery study (0 = the default period axis)")
	flag.IntVar(&p.Churn, "churn", 0, "single churn-event count for the recovery study (0 = the default churn axis)")
	flag.IntVar(&p.Campaigns, "campaigns", 0, "campaigns averaged into each recovery-study cell (0 = the default)")
	metricsOut := flag.String("metrics", "", "write the merged metrics snapshot of the instrumented experiments as JSON to this file (byte-identical at any -workers value)")
	traceOut := flag.String("trace", "", "write the packet-lifecycle trace of the instrumented experiments as JSON Lines to this file")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole invocation to this file")
	flag.Parse()

	// Validate the shared knobs before anything runs: a worker count
	// below 1 used to flow straight into the runner, where it silently
	// meant "serial" at best and hung a sharded sweep at worst, and a
	// bad -window or -switches failed once per study cell. Reject them
	// like an unknown -exp instead.
	for _, k := range []struct {
		flag string
		v    int
		unit string
	}{
		{"workers", *workers, "worker goroutine"},
		{"iters", p.Iters, "iteration"},
		{"window", *windowUs, "microsecond"},
		{"switches", p.Switches, "switch"},
	} {
		if k.v < 1 {
			fmt.Fprintf(os.Stderr, "itbsim: -%s %d is invalid; need at least 1 %s\n", k.flag, k.v, k.unit)
			os.Exit(1)
		}
	}
	runner.SetWorkers(*workers)
	p.Window = units.Time(*windowUs) * units.Microsecond
	p.Period = units.Time(*period) * units.Microsecond

	// Reject unknown detectors the same way as unknown engines: name
	// the offender, list what is valid.
	var err error
	p.Detector, err = recovery.ParseDetectorKind(*detectorName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itbsim: %v\n", err)
		os.Exit(1)
	}

	if p.Hosts < 0 || *period < 0 || p.Churn < 0 || p.Campaigns < 0 {
		fmt.Fprintf(os.Stderr, "itbsim: -hosts/-period/-churn/-campaigns must be >= 0 (0 selects the study default)\n")
		os.Exit(1)
	}

	// Reject unknown engines before anything runs, mirroring the
	// unknown -exp error path: name the offender, list what is valid.
	if p.Engine != "all" {
		if _, ok := routing.EngineByName(p.Engine); !ok {
			fmt.Fprintf(os.Stderr, "itbsim: unknown engine %q; valid engines:\n%s",
				p.Engine, routing.EngineList())
			os.Exit(1)
		}
	}

	var studies []core.Study
	for _, s := range all {
		if *exp == "all" || *exp == s.Name {
			studies = append(studies, s)
		}
	}
	if len(studies) == 0 {
		fmt.Fprintf(os.Stderr, "itbsim: unknown experiment %q; valid experiments: all %s\n",
			*exp, strings.Join(names, " "))
		os.Exit(1)
	}

	// -metrics and -trace arm shared collectors; the instrumented
	// studies merge their per-run state into them in run order, so the
	// exported files are byte-identical at any worker count.
	if *metricsOut != "" {
		p.Metrics = metrics.NewRegistry()
	}
	if *traceOut != "" {
		p.Trace = trace.NewRecorder(0)
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

	for _, s := range studies {
		if *csvOut && *exp == s.Name && !s.CSV {
			// A named study with no CSV form is an error, not tables
			// on stdout; -exp all prints the others' tables as usual.
			failures = append(failures, failure{s.Name, fmt.Errorf("no CSV form; the studies with one are: %s", strings.Join(csvNames, " "))})
			continue
		}
		rep, err := s.Run(p)
		if err == nil && *csvOut && s.CSV {
			err = rep.(core.CSVReport).WriteCSV(os.Stdout)
		} else if err == nil {
			rep.WriteTable(os.Stdout)
		}
		if err != nil {
			failures = append(failures, failure{s.Name, err})
			fmt.Fprintf(os.Stderr, "itbsim: %s failed (continuing): %v\n", s.Name, err)
			continue
		}
		fmt.Println()
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
	if p.Metrics != nil {
		writeFile("-metrics", *metricsOut, func(f *os.File) error {
			return p.Metrics.Snapshot().WriteJSON(f)
		})
	}
	if p.Trace != nil {
		writeFile("-trace", *traceOut, func(f *os.File) error {
			return p.Trace.WriteJSONL(f)
		})
	}
}
