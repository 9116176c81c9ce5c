package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/trace"
	"repro/internal/units"
)

// Params are the knobs the itbsim command line exposes. Every study
// takes the whole set and reads the ones it needs.
type Params struct {
	// Iters is the gm_allsize iterations per message size (fig7, fig8).
	Iters int
	// Switches sizes the random irregular network of the closed-loop
	// studies.
	Switches int
	// Window is the measurement window of the sweep studies.
	Window units.Time
	// Seed makes topologies, traffic and campaigns reproducible.
	Seed int64
	// Engine and Pattern narrow the engines and load studies to one
	// routing engine or workload pattern; "" or "all" keeps the
	// default set.
	Engine, Pattern string
	// Hosts, when positive, is the engines study's one nominal size.
	Hosts int
	// TopoFile, when set, names a serialized topology the engines
	// study routes instead of its generated grid.
	TopoFile string
	// Detector is the failure-detection plane of faults and recovery.
	Detector recovery.DetectorKind
	// Period, Churn and Campaigns, when positive, thin the recovery
	// grid to one heartbeat period, one churn count, and that many
	// campaigns per cell.
	Period           units.Time
	Churn, Campaigns int
	// Metrics and Trace, when non-nil, receive the instrumented
	// studies' per-run state, merged in run order.
	Metrics *metrics.Registry
	Trace   *trace.Recorder
}

// Report is a study's result, rendered as a table.
type Report interface {
	WriteTable(w io.Writer)
}

// CSVReport is a report that also has a CSV form.
type CSVReport interface {
	Report
	WriteCSV(w io.Writer) error
}

// Study is one experiment of the itbsim command.
type Study struct {
	Name string
	// CSV is whether the study's report is a CSVReport.
	CSV bool
	Run func(Params) (Report, error)
}

// study types a study's run: whether it has a CSV form is read off its
// report type.
func study[R Report](name string, run func(Params) (R, error)) Study {
	_, csv := any(*new(R)).(CSVReport)
	return Study{Name: name, CSV: csv, Run: func(p Params) (Report, error) {
		r, err := run(p)
		return r, err
	}}
}

// Studies returns the itbsim experiments in `-exp all` order.
func Studies() []Study {
	return []Study{
		study("fig7", func(p Params) (Fig7Result, error) {
			cfg := DefaultFig7Config()
			cfg.Iterations, cfg.Metrics, cfg.Trace = p.Iters, p.Metrics, p.Trace
			return RunFig7(cfg)
		}),
		study("fig8", func(p Params) (Fig8Result, error) {
			cfg := DefaultFig8Config()
			cfg.Iterations, cfg.Metrics, cfg.Trace = p.Iters, p.Metrics, p.Trace
			return RunFig8(cfg)
		}),
		study("costs", func(Params) (CostReport, error) { return RunCostReport() }),
		study("throughput", func(p Params) (ThroughputReport, error) {
			return runThroughput(p.Switches, p.Seed, p.Window, p.Metrics)
		}),
		study("bufpool", func(Params) (BufPoolResult, error) { return RunBufPool(DefaultBufPoolConfig()) }),
		study("itbcount", func(p Params) (ITBCountResult, error) { return RunITBCount(4, 64, 30, p.Metrics) }),
		study("ablation", func(p Params) (AblationResult, error) {
			return RunAblations([]int{64, 1024, 4096}, 20, p.Metrics)
		}),
		study("scaling", func(p Params) (ScalingResult, error) { return RunScaling([]int{8, 16, 32}, p.Seed, p.Window) }),
		study("sensitivity", func(p Params) (SensitivityResult, error) { return RunSensitivity(p.Switches, p.Seed, p.Window) }),
		study("trace", func(p Params) (TraceDemo, error) {
			d, err := RunTraceDemo()
			if err == nil && p.Trace != nil {
				for _, e := range d.Events() {
					p.Trace.Record(e)
				}
			}
			return d, err
		}),
		study("app", func(p Params) (AppStudyResult, error) {
			cfg := DefaultAppStudyConfig()
			cfg.Switches, cfg.Seed = p.Switches, p.Seed
			return RunAppStudy(cfg)
		}),
		study("chunks", func(Params) (ChunkResult, error) {
			return RunChunkAblation(8192, []int{0, 32, 64, 256, 1024, 4096}, 20)
		}),
		study("faults", func(p Params) (FaultReport, error) {
			cfg := DefaultFaultStudyConfig(routing.ITBRouting, p.Switches, p.Seed)
			cfg.Metrics, cfg.Detector = p.Metrics, p.Detector
			return RunFaultStudy(cfg)
		}),
		study("engines", func(p Params) (EngineStudyResult, error) {
			cfg := DefaultEngineStudyConfig(p.Seed)
			cfg.Metrics = p.Metrics
			cfg.Engines = pick(cfg.Engines, p.Engine)
			if p.Hosts > 0 {
				cfg.Sizes = []int{p.Hosts}
			}
			if p.TopoFile != "" {
				text, err := os.ReadFile(p.TopoFile)
				if err != nil {
					return EngineStudyResult{}, err
				}
				cfg.TopoText, cfg.TopoLabel = string(text), filepath.Base(p.TopoFile)
			}
			res, err := RunEngineStudy(cfg)
			if err != nil {
				// An engine refusing a topology (disconnected, no switches,
				// uncabled hosts) lists the registered engines, so the caller
				// can tell a bad engine choice from a bad topology.
				return res, fmt.Errorf("%w\nvalid engines:\n%s", err, routing.EngineList())
			}
			return res, nil
		}),
		study("recovery", func(p Params) (RecoveryStudyResult, error) {
			cfg := DefaultRecoveryStudyConfig(routing.ITBRouting, p.Switches, p.Seed)
			cfg.Metrics, cfg.Detector = p.Metrics, p.Detector
			// Grid-thinning knobs for scale runs: the nightly 1024-host
			// churn grid samples single cells rather than the full cross
			// product.
			if p.Period > 0 {
				cfg.Periods = []units.Time{p.Period}
			}
			if p.Churn > 0 {
				cfg.ChurnEvents = []int{p.Churn}
			}
			if p.Campaigns > 0 {
				cfg.CampaignsPerCell = p.Campaigns
			}
			return RunRecoveryStudy(cfg)
		}),
		study("load", func(p Params) (LoadStudyResult, error) {
			cfg := DefaultLoadStudyConfig(p.Seed)
			cfg.Metrics = p.Metrics
			cfg.Engines = pick(cfg.Engines, p.Engine)
			cfg.Patterns = pick(cfg.Patterns, p.Pattern)
			return RunLoadStudy(cfg)
		}),
		study("vc", func(p Params) (VCStudyResult, error) {
			cfg := DefaultVCStudyConfig(p.Seed)
			cfg.Metrics = p.Metrics
			return RunVCStudy(cfg)
		}),
	}
}

// pick narrows a default list to the one name asked for; "" and "all"
// keep the default.
func pick(def []string, name string) []string {
	if name == "" || name == "all" {
		return def
	}
	return []string{name}
}
