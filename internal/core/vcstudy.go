package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/units"
	"repro/internal/workload"
)

// The VC ablation: the paper argues in-transit buffers make minimal
// routing deadlock free WITHOUT virtual channels; the classic
// alternative buys the same property with extra lanes per physical
// link. RunVCStudy runs both mechanisms — and their combination —
// through the identical simulation stack: arm "itb" is the paper's
// engine on a fabric that merely carries (idle) extra lanes, arm "vc"
// repairs every up*/down* violation with a lane bump and zero ITBs,
// arm "itb+vc" lets the route search pick the cheaper repair per
// violation. Each cell reports delivered throughput, completion-time
// percentiles, the table's total in-transit assignments, and the
// static deadlock-freedom certificate of its (lane-aware) channel
// dependency graph.

// vcArms are the valid ablation arms in CLI order.
var vcArms = []string{"itb", "vc", "itb+vc"}

// VCStudyConfig drives the ablation grid: arm x lane count x preset.
type VCStudyConfig struct {
	// Presets name the topologies as "<class>-<hosts>", as in the load
	// study.
	Presets []string
	// Arms selects the ablation arms; default all of vcArms.
	Arms []string
	// LaneCounts is the virtual-lane axis. The "itb" arm's rows must
	// be identical across lane counts (its routes never leave lane 0);
	// that invariance is part of the committed golden.
	LaneCounts []int
	// Load is the offered open-loop uniform load per sender.
	Load float64
	// Arrival shapes the senders' arrival process.
	Arrival workload.ArrivalConfig
	// Sizes selects the flow-size mix.
	Sizes workload.SizeMixConfig
	// Window is the measurement interval; Warmup is discarded
	// start-up time.
	Window, Warmup units.Time
	// Seed makes topologies and schedules reproducible.
	Seed int64
	// Metrics, when non-nil, receives each cell's merged counters
	// under the "<preset>.<arm>.lanes<N>." prefix, in cell order.
	Metrics *metrics.Registry
}

// DefaultVCStudyConfig returns the standard ablation grid.
func DefaultVCStudyConfig(seed int64) VCStudyConfig {
	return VCStudyConfig{
		Presets:    []string{"fattree-16", "dragonfly-72"},
		Arms:       vcArms,
		LaneCounts: []int{1, 2, 4},
		Load:       0.6,
		Arrival:    workload.ArrivalConfig{Kind: workload.Poisson},
		Sizes:      workload.SizeMixConfig{Kind: "websearch"},
		Window:     250 * units.Microsecond,
		Warmup:     50 * units.Microsecond,
		Seed:       seed,
	}
}

// vcArmEngine maps an (arm, lane count) cell to its routing engine.
func vcArmEngine(arm string, lanes int) (routing.Engine, error) {
	switch arm {
	case "itb":
		return routing.ITBRouting, nil
	case "vc":
		return routing.VCEscapeEngine{NumLanes: lanes}, nil
	case "itb+vc":
		return routing.VCEscapeEngine{NumLanes: lanes, ITBRepair: true}, nil
	}
	return nil, fmt.Errorf("core: unknown VC ablation arm %q (valid: %s)", arm, strings.Join(vcArms, " "))
}

// VCRow is one (preset, arm, lanes) cell.
type VCRow struct {
	Preset string
	Arm    string
	Lanes  int
	Hosts  int
	// Offered / Delivered are per-sender load fractions as in the
	// load study; their gap is the saturation signal.
	Offered   float64
	Delivered float64
	// FlowsSent / FlowsDone count window flows.
	FlowsSent, FlowsDone uint64
	// P50 / P99 are flow-completion-time percentiles.
	P50, P99 units.Time
	// ITBs is the total in-transit assignments across the cell's
	// route table — the resource the vc arms trade lanes against.
	ITBs int
	// DeadlockFree records the static lane-aware certification of the
	// cell's table (a failed certificate fails the cell, so a
	// committed golden always reads "yes"; the column documents that
	// the check ran).
	DeadlockFree bool
}

// VCStudyResult is the full ablation.
type VCStudyResult struct {
	Config    VCStudyConfig
	SizesName string
	SizesMean float64
	Rows      []VCRow
}

// vcCellSpec is one runner work item.
type vcCellSpec struct {
	preset   string
	arm      string
	lanes    int
	topoText []byte
}

// RunVCStudy executes the ablation through the parallel runner; rows
// and metrics merge in grid order, so the study is byte-identical at
// any worker count.
func RunVCStudy(cfg VCStudyConfig) (VCStudyResult, error) {
	res := VCStudyResult{Config: cfg}
	if len(cfg.Arms) == 0 {
		cfg.Arms = vcArms
	}
	for _, arm := range cfg.Arms {
		if _, err := vcArmEngine(arm, 1); err != nil {
			return res, err
		}
	}
	if len(cfg.Presets) == 0 || len(cfg.LaneCounts) == 0 {
		return res, fmt.Errorf("core: VC study needs presets and lane counts")
	}
	for _, l := range cfg.LaneCounts {
		if l < 1 || l > 255 {
			return res, fmt.Errorf("core: lane count %d out of range [1, 255]", l)
		}
	}
	if cfg.Load <= 0 {
		return res, fmt.Errorf("core: VC study needs a positive offered load")
	}
	if cfg.Window <= 0 || cfg.Warmup < 0 {
		return res, fmt.Errorf("core: VC study needs a positive window and non-negative warmup")
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
	var specs []vcCellSpec
	for _, preset := range cfg.Presets {
		for _, arm := range cfg.Arms {
			for _, lanes := range cfg.LaneCounts {
				specs = append(specs, vcCellSpec{
					preset: preset, arm: arm, lanes: lanes,
					topoText: topoTexts[preset],
				})
			}
		}
	}
	res.Rows, err = runCells(specs, runObs{reg: cfg.Metrics}, func(i int, _ VCRow) string {
		return fmt.Sprintf("%s.%s.lanes%d.", specs[i].preset, specs[i].arm, specs[i].lanes)
	}, func(s vcCellSpec, obs runObs) (VCRow, error) {
		return runVCCell(cfg, mix, s, obs)
	})
	return res, err
}

// tableITBs sums the in-transit assignments over a route table.
func tableITBs(tbl *routing.Table) int {
	n := 0
	for _, r := range tbl.Routes() {
		n += r.NumITBs()
	}
	return n
}

// runVCCell runs one cell through the load study's open-loop cell,
// with the cell's constructed engine and pinned fabric lane count.
// The "itb" arm runs on a fabric that carries the extra lanes but
// never selects them, which is exactly the comparison the ablation
// wants. The certificate and the ITB count are taken before the run.
func runVCCell(cfg VCStudyConfig, mix workload.SizeMix, s vcCellSpec, obs runObs) (VCRow, error) {
	topo, err := readTopo(s.topoText)
	if err != nil {
		return VCRow{}, err
	}
	eng, err := vcArmEngine(s.arm, s.lanes)
	if err != nil {
		return VCRow{}, err
	}
	cl, err := loadCluster(topo, eng, s.lanes, false, obs)
	if err != nil {
		return VCRow{}, err
	}
	if err := routing.CheckDeadlockFree(cl.Table.Routes()); err != nil {
		return VCRow{}, fmt.Errorf("core: %s/%s/lanes%d failed deadlock certification: %w", s.preset, s.arm, s.lanes, err)
	}
	row := VCRow{Preset: s.preset, Arm: s.arm, Lanes: s.lanes,
		Hosts: len(topo.Hosts()), Offered: cfg.Load,
		ITBs: tableITBs(cl.Table), DeadlockFree: true}
	c, err := measureOpenLoop(cl, workload.PlanConfig{
		Scenario: workload.ScenarioUniform,
		Load:     cfg.Load,
		Arrival:  cfg.Arrival,
		Sizes:    mix,
		Seed:     cfg.Seed + 1,
	}, cfg.Warmup, cfg.Window)
	if err != nil {
		return VCRow{}, err
	}
	row.Delivered, row.FlowsSent, row.FlowsDone = c.delivered, c.sent, c.done
	row.P50, row.P99, _ = fctPercentiles(c.fct)
	obs.finish(cl)
	return row, nil
}

// WriteTable renders the ablation grouped by preset.
func (r VCStudyResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "VC ablation: in-transit buffers vs virtual-channel lanes (uniform open loop)\n")
	fmt.Fprintf(w, "arrival %s, sizes %s (mean %.0fB), load %.2f, window %s after %s warmup\n",
		r.Config.Arrival.Kind, r.SizesName, r.SizesMean, r.Config.Load, r.Config.Window, r.Config.Warmup)
	fmt.Fprintf(w, "%-14s %-7s %5s %7s %8s %6s %6s %10s %10s %6s %9s\n",
		"preset", "arm", "lanes", "offered", "delivrd", "sent", "done", "p50", "p99", "itbs", "deadlock")
	prev := ""
	for _, row := range r.Rows {
		if prev != "" && row.Preset != prev {
			fmt.Fprintln(w)
		}
		prev = row.Preset
		p50, p99 := "-", "-"
		if row.P50 > 0 {
			p50, p99 = row.P50.String(), row.P99.String()
		}
		cert := "free"
		if !row.DeadlockFree {
			cert = "CYCLE"
		}
		fmt.Fprintf(w, "%-14s %-7s %5d %7.2f %8.3f %6d %6d %10s %10s %6d %9s\n",
			row.Preset, row.Arm, row.Lanes, row.Offered, row.Delivered,
			row.FlowsSent, row.FlowsDone, p50, p99, row.ITBs, cert)
	}
	fmt.Fprintf(w, "\nthe itb arm's rows are identical across lane counts (its routes never leave\n")
	fmt.Fprintf(w, "lane 0); the vc arm trades every in-transit buffer for a lane bump, and the\n")
	fmt.Fprintf(w, "combined arm lets the route search pick the cheaper repair per violation.\n")
}

// WriteCSV emits the rows for external plotting.
func (r VCStudyResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"preset", "arm", "lanes", "hosts", "offered", "delivered",
		"flows_sent", "flows_done", "p50_us", "p99_us", "itbs", "deadlock_free",
	}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			row.Preset, row.Arm,
			fmt.Sprintf("%d", row.Lanes),
			fmt.Sprintf("%d", row.Hosts),
			fmt.Sprintf("%.4f", row.Offered),
			fmt.Sprintf("%.6f", row.Delivered),
			fmt.Sprintf("%d", row.FlowsSent),
			fmt.Sprintf("%d", row.FlowsDone),
			fmt.Sprintf("%.3f", float64(row.P50)/float64(units.Microsecond)),
			fmt.Sprintf("%.3f", float64(row.P99)/float64(units.Microsecond)),
			fmt.Sprintf("%d", row.ITBs),
			fmt.Sprintf("%t", row.DeadlockFree),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
