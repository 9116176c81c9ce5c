package core

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/units"
	"repro/internal/workload"
)

// RecoveryStudyConfig drives the self-healing study: a grid of
// heartbeat period x fault churn, each cell running several generated
// campaigns with the recovery protocol attached. The observables are
// the paper-facing trade-off of any online failure detector: a short
// period detects faults quickly (high availability under churn) but
// spends more of the fabric on probes; a long period is cheap and
// slow.
type RecoveryStudyConfig struct {
	// Switches sizes the random irregular topology.
	Switches int
	// Seed makes topology, traffic and campaigns reproducible.
	Seed int64
	// Periods is the heartbeat-period axis.
	Periods []units.Time
	// ChurnEvents is the churn axis: fault episodes per campaign.
	ChurnEvents []int
	// CampaignsPerCell is how many generated campaigns average into
	// each cell.
	CampaignsPerCell int
	// Load is the offered load as a fraction of link bandwidth.
	Load float64
	// MessageSize is the payload per message (>= workload.MinFlowBytes).
	MessageSize int
	// Horizon is the fault-injection window; the recovery deadline is
	// 4x this.
	Horizon units.Time
	// Algorithm selects the routing. Required.
	Algorithm *routing.UpDownEngine
	// Detector selects the failure-detection protocol: the centralized
	// monitor (default) or the decentralized gossip detector. Gossip
	// turns the study into the churn study: the grid's detection and
	// convergence latencies are cluster-consensus figures with no
	// monitor host, and the probe-overhead columns become meaningful.
	Detector recovery.DetectorKind
	// Metrics, when non-nil, receives merged per-campaign metrics
	// prefixed "cell<NN>.camp<NN>.".
	Metrics *metrics.Registry
}

// RecoveryStudyRow aggregates one (period, churn) cell.
type RecoveryStudyRow struct {
	Period      units.Time
	ChurnEvents int
	Campaigns   int

	Sent      uint64
	Delivered uint64
	Failed    uint64
	// Availability is delivered/sent across the cell's campaigns.
	Availability float64

	EpochsPublished uint64
	Confirms        uint64
	Resurrections   uint64
	// StaleDrops sums the campaigns' GM drops of packets and acks of
	// an older incarnation (CampaignOutcome.StaleDrops).
	StaleDrops uint64
	// Detector-plane overhead across the cell's campaigns: direct
	// probes, second-chance probes (monitor verify / gossip ping-req),
	// and the gossip-only refutation and digest counters.
	Probes       uint64
	VerifyProbes uint64
	Refutations  uint64
	Digests      uint64
	Piggybacks   uint64
	// DetectionAvg / ConvergenceAvg average the campaigns that had
	// confirmations (zero when none did).
	DetectionAvg   units.Time
	ConvergenceAvg units.Time
}

// RecoveryStudyResult is the full grid.
type RecoveryStudyResult struct {
	Switches  int
	Algorithm *routing.UpDownEngine
	Detector  recovery.DetectorKind
	Rows      []RecoveryStudyRow
}

// DefaultRecoveryStudyConfig returns a moderate grid on a medium
// irregular network.
func DefaultRecoveryStudyConfig(alg *routing.UpDownEngine, switches int, seed int64) RecoveryStudyConfig {
	return RecoveryStudyConfig{
		Switches:         switches,
		Seed:             seed,
		Periods:          []units.Time{75 * units.Microsecond, 150 * units.Microsecond, 300 * units.Microsecond},
		ChurnEvents:      []int{3, 6},
		CampaignsPerCell: 3,
		Load:             0.15,
		MessageSize:      512,
		Horizon:          800 * units.Microsecond,
		Algorithm:        alg,
	}
}

// recoverySpec is one runner work item: a cell and a campaign within
// it.
type recoverySpec struct {
	cell     int // index into the flattened (period, churn) grid
	campaign int // 1-based: campaign index within the cell
}

// RunRecoveryStudy executes the grid through the parallel runner,
// merging cells in grid order so the result is byte-identical at any
// worker count.
func RunRecoveryStudy(cfg RecoveryStudyConfig) (RecoveryStudyResult, error) {
	detector, err := recovery.ParseDetectorKind(string(cfg.Detector))
	if err != nil {
		return RecoveryStudyResult{}, err
	}
	res := RecoveryStudyResult{Switches: cfg.Switches, Algorithm: cfg.Algorithm, Detector: detector}
	if cfg.Algorithm == nil {
		return res, fmt.Errorf("core: recovery study needs a routing algorithm")
	}
	if len(cfg.Periods) == 0 || len(cfg.ChurnEvents) == 0 || cfg.CampaignsPerCell <= 0 {
		return res, fmt.Errorf("core: recovery study needs periods, churn counts and campaigns per cell")
	}
	mix, err := workload.FixedSize(cfg.MessageSize)
	if err != nil {
		return res, fmt.Errorf("core: recovery study: %w", err)
	}
	text, err := irregularText(cfg.Switches, cfg.Seed)
	if err != nil {
		return res, err
	}
	type cellCfg struct {
		period units.Time
		churn  int
	}
	var cells []cellCfg
	for _, p := range cfg.Periods {
		for _, c := range cfg.ChurnEvents {
			cells = append(cells, cellCfg{p, c})
		}
	}
	var specs []recoverySpec
	for ci := range cells {
		for k := 1; k <= cfg.CampaignsPerCell; k++ {
			specs = append(specs, recoverySpec{cell: ci, campaign: k})
		}
	}
	outcomes, err := runCells(specs, runObs{reg: cfg.Metrics}, func(i int, _ CampaignOutcome) string {
		return fmt.Sprintf("cell%02d.camp%02d.", specs[i].cell, specs[i].campaign)
	}, func(s recoverySpec, obs runObs) (CampaignOutcome, error) {
		cell := cells[s.cell]
		rcfg := recovery.DefaultConfig(0)
		rcfg.Period = cell.period
		fcfg := FaultStudyConfig{
			Switches:    cfg.Switches,
			Seed:        cfg.Seed + int64(s.cell)*1000,
			FaultEvents: cell.churn,
			Load:        cfg.Load,
			MessageSize: cfg.MessageSize,
			Horizon:     cfg.Horizon,
			Algorithm:   cfg.Algorithm,
			Recovery:    &rcfg,
			Detector:    detector,
		}
		return runFaultCampaign(fcfg, mix, s.campaign, text, obs)
	})
	if err != nil {
		return res, err
	}
	for ci, cell := range cells {
		row := RecoveryStudyRow{Period: cell.period, ChurnEvents: cell.churn, Campaigns: cfg.CampaignsPerCell}
		var detSum, convSum units.Time
		var detN, convN int
		for k := 0; k < cfg.CampaignsPerCell; k++ {
			o := outcomes[ci*cfg.CampaignsPerCell+k]
			row.Sent += o.Sent
			row.Delivered += o.Delivered
			row.Failed += o.Failed
			row.EpochsPublished += o.EpochsPublished
			row.Confirms += o.Confirms
			row.Resurrections += o.Resurrections
			row.StaleDrops += o.StaleDrops
			row.Probes += o.Probes
			row.VerifyProbes += o.VerifyProbes
			row.Refutations += o.Refutations
			row.Digests += o.Digests
			row.Piggybacks += o.Piggybacks
			if o.DetectionAvg > 0 {
				detSum += o.DetectionAvg
				detN++
			}
			if o.ConvergenceAvg > 0 {
				convSum += o.ConvergenceAvg
				convN++
			}
		}
		if detN > 0 {
			row.DetectionAvg = detSum / units.Time(detN)
		}
		if convN > 0 {
			row.ConvergenceAvg = convSum / units.Time(convN)
		}
		if row.Sent > 0 {
			row.Availability = float64(row.Delivered) / float64(row.Sent)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTable renders the grid. Monitor mode keeps the exact format
// every earlier golden pinned; gossip mode — the churn study — adds
// the probe-overhead columns that are the other side of its
// trade-off (detection latency bought with probe traffic).
func (r RecoveryStudyResult) WriteTable(w io.Writer) {
	if r.Detector == recovery.DetectorGossip {
		fmt.Fprintf(w, "Churn study (gossip detector): %s, %d switches (availability vs protocol period and churn)\n",
			r.Algorithm, r.Switches)
		fmt.Fprintf(w, "%-10s %6s %6s %6s %8s %6s %8s %7s %8s %8s %7s %12s %12s\n",
			"period", "churn", "sent", "delivd", "avail", "epochs", "confirm", "resurr",
			"probes", "pingreq", "refute", "detect-avg", "converge-avg")
		for _, row := range r.Rows {
			det, conv := "-", "-"
			if row.DetectionAvg > 0 {
				det = row.DetectionAvg.String()
			}
			if row.ConvergenceAvg > 0 {
				conv = row.ConvergenceAvg.String()
			}
			fmt.Fprintf(w, "%-10s %6d %6d %6d %7.2f%% %6d %8d %7d %8d %8d %7d %12s %12s\n",
				row.Period, row.ChurnEvents, row.Sent, row.Delivered, 100*row.Availability,
				row.EpochsPublished, row.Confirms, row.Resurrections,
				row.Probes, row.VerifyProbes, row.Refutations, det, conv)
		}
		fmt.Fprintf(w, "no monitor host: detection is emergent consensus, paid for in probe traffic\n")
		return
	}
	fmt.Fprintf(w, "Recovery study: %s, %d switches (availability vs heartbeat period and churn)\n",
		r.Algorithm, r.Switches)
	fmt.Fprintf(w, "%-10s %6s %6s %6s %8s %6s %8s %7s %12s %12s\n",
		"period", "churn", "sent", "delivd", "avail", "epochs", "confirm", "resurr", "detect-avg", "converge-avg")
	for _, row := range r.Rows {
		det, conv := "-", "-"
		if row.DetectionAvg > 0 {
			det = row.DetectionAvg.String()
		}
		if row.ConvergenceAvg > 0 {
			conv = row.ConvergenceAvg.String()
		}
		fmt.Fprintf(w, "%-10s %6d %6d %6d %7.2f%% %6d %8d %7d %12s %12s\n",
			row.Period, row.ChurnEvents, row.Sent, row.Delivered, 100*row.Availability,
			row.EpochsPublished, row.Confirms, row.Resurrections, det, conv)
	}
	fmt.Fprintf(w, "shorter heartbeat periods detect faults sooner at the cost of probe traffic\n")
}

// WriteCSV emits the grid for external plotting.
func (r RecoveryStudyResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"period_us", "churn_events", "campaigns", "sent", "delivered", "failed",
		"availability", "epochs_published", "confirms", "resurrections",
		"detection_us", "convergence_us", "stale_drops",
		"detector", "probes", "verify_probes", "refutations", "digests", "piggybacks",
	}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			fmt.Sprintf("%.3f", float64(row.Period)/float64(units.Microsecond)),
			fmt.Sprintf("%d", row.ChurnEvents),
			fmt.Sprintf("%d", row.Campaigns),
			fmt.Sprintf("%d", row.Sent),
			fmt.Sprintf("%d", row.Delivered),
			fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%.6f", row.Availability),
			fmt.Sprintf("%d", row.EpochsPublished),
			fmt.Sprintf("%d", row.Confirms),
			fmt.Sprintf("%d", row.Resurrections),
			fmt.Sprintf("%.3f", float64(row.DetectionAvg)/float64(units.Microsecond)),
			fmt.Sprintf("%.3f", float64(row.ConvergenceAvg)/float64(units.Microsecond)),
			fmt.Sprintf("%d", row.StaleDrops),
			string(r.Detector),
			fmt.Sprintf("%d", row.Probes),
			fmt.Sprintf("%d", row.VerifyProbes),
			fmt.Sprintf("%d", row.Refutations),
			fmt.Sprintf("%d", row.Digests),
			fmt.Sprintf("%d", row.Piggybacks),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
