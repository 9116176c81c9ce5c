package core

import (
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// FaultStudyConfig drives a fault-injection study: the same cluster
// and traffic run once fault-free (the baseline) and once per
// generated campaign, and the report compares delivery counts and
// latency degradation. Every campaign is materialised up-front from
// its seed, so the whole study is deterministic and runs byte-identical
// at any worker count under the parallel runner.
type FaultStudyConfig struct {
	// Switches sizes the random irregular topology.
	Switches int
	// Seed makes topology, traffic and campaigns reproducible.
	Seed int64
	// Campaigns is how many generated fault campaigns to run (the
	// fault-free baseline always runs in addition).
	Campaigns int
	// FaultEvents is the number of fault episodes per campaign.
	FaultEvents int
	// Load is the offered load during the run, as a fraction of
	// per-host link bandwidth.
	Load float64
	// MessageSize is the payload per message (>= workload.MinFlowBytes).
	MessageSize int
	// Horizon is the injection window; faults land inside it and the
	// run then drains to completion (dead-peer verdicts bound the
	// drain under permanent faults).
	Horizon units.Time
	// Algorithm selects the routing. Required.
	Algorithm *routing.UpDownEngine
	// Recovery, when non-nil, runs the in-simulation self-healing
	// subsystem during campaigns: heartbeat probing from a monitor
	// host, suspect/confirm failure detection, and epoch-versioned
	// route tables republished host by host — all as simulation
	// events, with measured detection and convergence latency. Nil
	// leaves only the GM reliability layer to cope, which is what
	// stock GM without remapping would do. A zero Deadline is filled
	// with 4*Horizon.
	Recovery *recovery.Config
	// Detector selects the failure-detection protocol when Recovery is
	// set: recovery.DetectorMonitor (the default, and the zero value)
	// runs the centralized monitor-host heartbeat; recovery.DetectorGossip
	// runs the decentralized SWIM-style detector with one agent per
	// host and no single point of failure.
	Detector recovery.DetectorKind
	// Transient overrides the fraction of generated faults that are
	// repaired within the horizon (zero keeps the generator default of
	// 0.7). Churn studies push this toward 1 so hosts flap down and
	// back up instead of staying dead.
	Transient float64
	// DropStaleITB selects the in-transit hosts' policy for packets
	// stamped with an older epoch than the host's own during
	// mixed-epoch convergence windows: drop (true) or optimistically
	// forward (false).
	DropStaleITB bool
	// GM recovery knobs (zero values take the study defaults:
	// AckTimeout 150us, backoff 2x capped at 2ms, verdict after 6
	// barren timeouts).
	AckTimeout       units.Time
	BackoffFactor    float64
	MaxAckTimeout    units.Time
	DeadPeerTimeouts int
	// Metrics, when non-nil, receives the merged end-of-run metrics of
	// the baseline and every campaign, prefixed "baseline." and
	// "campaign<NN>." (merged in campaign order; byte-identical at any
	// worker count).
	Metrics *metrics.Registry
}

// DefaultFaultStudyConfig returns a moderate study on a medium
// irregular network.
func DefaultFaultStudyConfig(alg *routing.UpDownEngine, switches int, seed int64) FaultStudyConfig {
	rc := recovery.DefaultConfig(0) // deadline filled from the horizon
	return FaultStudyConfig{
		Switches:    switches,
		Seed:        seed,
		Campaigns:   4,
		FaultEvents: 5,
		Load:        0.15,
		MessageSize: 512,
		Horizon:     2 * units.Millisecond,
		Algorithm:   alg,
		Recovery:    &rc,
	}
}

// CampaignOutcome is the accounting of one campaign run. The
// conservation invariant the fault suite checks is visible here:
// Sent == Delivered + Failed + the sender-failed-but-delivered overlap
// (Overlap), and Duplicated stays zero.
type CampaignOutcome struct {
	Name   string
	Events int

	Sent      uint64 // messages handed to GM (tracked)
	Delivered uint64 // distinct messages seen by a receiver
	Failed    uint64 // messages whose sender reported failure
	// Overlap counts messages both delivered and reported failed: the
	// data got through but every ack was lost until the dead-peer
	// verdict. The sender's view is pessimistic, never silent.
	Overlap uint64
	// Duplicated counts repeat deliveries of one message (must be 0).
	Duplicated uint64

	Retransmits uint64
	PeersDead   uint64
	FaultKilled uint64 // packets killed on downed links
	PoolDrops   uint64

	// Self-healing observables (all zero when no recovery config ran).
	EpochsPublished uint64
	Suspects        uint64
	Confirms        uint64
	Resurrections   uint64
	StaleDrops      uint64 // stale-epoch drops, GM window + in-transit
	DetectionAvg    units.Time
	ConvergenceAvg  units.Time

	// Detector-plane traffic: what the failure detector itself spent on
	// the fabric. Probes counts direct probes (monitor heartbeats or
	// gossip pings), VerifyProbes the second-chance stage (monitor
	// verify round / gossip ping-reqs). Refutations, Digests and
	// Piggybacks are gossip-only: incarnation bumps, membership digests
	// attached to protocol packets, and digests ridden on data packets.
	Probes       uint64
	VerifyProbes uint64
	Refutations  uint64
	Digests      uint64
	Piggybacks   uint64

	AvgLatency units.Time
	P99Latency units.Time
}

// FaultReport is the study result: the baseline plus each campaign.
type FaultReport struct {
	Algorithm *routing.UpDownEngine
	Switches  int
	Baseline  CampaignOutcome
	Campaigns []CampaignOutcome
}

// RunFaultStudy executes the study: one fresh cluster per campaign,
// dispatched through the parallel runner and merged in campaign order.
func RunFaultStudy(cfg FaultStudyConfig) (FaultReport, error) {
	if cfg.Algorithm == nil {
		return FaultReport{}, fmt.Errorf("core: fault study needs a routing algorithm")
	}
	if cfg.Horizon <= 0 {
		return FaultReport{}, fmt.Errorf("core: fault study needs a positive horizon")
	}
	if err := workload.CheckLoad(cfg.Load); err != nil {
		return FaultReport{}, fmt.Errorf("core: fault study: %w", err)
	}
	mix, err := workload.FixedSize(cfg.MessageSize)
	if err != nil {
		return FaultReport{}, fmt.Errorf("core: fault study: %w", err)
	}
	rep := FaultReport{Algorithm: cfg.Algorithm, Switches: cfg.Switches}
	text, err := irregularText(cfg.Switches, cfg.Seed)
	if err != nil {
		return rep, err
	}
	campaigns := make([]int, cfg.Campaigns+1) // 0 is the baseline
	for i := range campaigns {
		campaigns[i] = i
	}
	outcomes, err := runCells(campaigns, runObs{reg: cfg.Metrics}, func(i int, _ CampaignOutcome) string {
		if i == 0 {
			return "baseline."
		}
		return fmt.Sprintf("campaign%02d.", i)
	}, func(idx int, obs runObs) (CampaignOutcome, error) {
		return runFaultCampaign(cfg, mix, idx, text, obs)
	})
	if err != nil {
		return rep, err
	}
	rep.Baseline = outcomes[0]
	rep.Campaigns = outcomes[1:]
	return rep, nil
}

// studyGM returns the GM parameters of the study with the recovery
// knobs resolved.
func studyGM(cfg FaultStudyConfig) (ack units.Time, backoff float64, maxAck units.Time, deadAfter int) {
	ack = cfg.AckTimeout
	if ack <= 0 {
		ack = 150 * units.Microsecond
	}
	backoff = cfg.BackoffFactor
	if backoff == 0 {
		backoff = 2
	}
	maxAck = cfg.MaxAckTimeout
	if maxAck <= 0 {
		maxAck = 2 * units.Millisecond
	}
	deadAfter = cfg.DeadPeerTimeouts
	if deadAfter == 0 {
		deadAfter = 6
	}
	return
}

// runFaultCampaign runs campaign idx (0 = the fault-free baseline) on
// a private copy of the serialized topology; mix sizes its messages.
func runFaultCampaign(cfg FaultStudyConfig, mix workload.SizeMix, idx int, topoText []byte, obs runObs) (CampaignOutcome, error) {
	topo, err := readTopo(topoText)
	if err != nil {
		return CampaignOutcome{}, err
	}
	ccfg := DefaultConfig(topo, cfg.Algorithm, variantFor(cfg.Algorithm))
	ccfg.MCP.BufferPool = true
	ccfg.MCP.RecvBuffers = 16
	ccfg.MCP.DropStaleITB = cfg.DropStaleITB
	ccfg.GM.AckTimeout, ccfg.GM.BackoffFactor, ccfg.GM.MaxAckTimeout, ccfg.GM.DeadPeerTimeouts = studyGM(cfg)
	obs.install(&ccfg)
	cl, err := NewCluster(ccfg)
	if err != nil {
		return CampaignOutcome{}, err
	}
	out := CampaignOutcome{Name: "baseline"}
	var det recovery.Detector
	if idx > 0 {
		camp := faults.Generate(cfg.Seed+int64(idx), topo, faults.GenConfig{
			Horizon:   cfg.Horizon,
			Events:    cfg.FaultEvents,
			Transient: cfg.Transient,
		})
		out.Name = camp.Name
		out.Events = len(camp.Events)
		if cfg.Recovery != nil {
			rcfg := *cfg.Recovery
			if rcfg.Deadline <= 0 {
				rcfg.Deadline = 4 * cfg.Horizon
			}
			rtgt := recovery.Target{
				Eng:     cl.Eng,
				Topo:    topo,
				Engine:  cfg.Algorithm,
				Base:    cl.Table,
				Hosts:   hostSlice(cl),
				Monitor: 0,
			}
			// Assign the interface only from a successfully built
			// detector — a typed-nil pointer in det would defeat every
			// `det != nil` guard downstream.
			switch cfg.Detector {
			case recovery.DetectorGossip:
				if rcfg.Seed == 0 {
					rcfg.Seed = cfg.Seed + int64(idx)
				}
				gsp, gerr := recovery.NewGossip(rcfg, rtgt)
				if gerr != nil {
					return CampaignOutcome{}, gerr
				}
				gsp.Start()
				det = gsp
			default:
				mgr, merr := recovery.NewManager(rcfg, rtgt)
				if merr != nil {
					return CampaignOutcome{}, merr
				}
				mgr.Start()
				det = mgr
			}
		}
		_, err = faults.Attach(faults.Target{
			Eng:      cl.Eng,
			Net:      cl.Net,
			Topo:     topo,
			Hosts:    hostSlice(cl),
			Recovery: det,
		}, camp)
		if err != nil {
			return CampaignOutcome{}, err
		}
	}

	flows, err := workload.Plan(topo, workload.PlanConfig{
		Scenario: workload.ScenarioPattern, Pattern: workload.Uniform,
		Load: cfg.Load, Sizes: mix, Seed: cfg.Seed + 1, Horizon: cfg.Horizon,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	})
	if err != nil {
		return CampaignOutcome{}, err
	}
	// Drain fully: the dead-peer verdict guarantees termination even
	// under permanent faults.
	var lat stats.Summary
	deliveries, failed := runOpenLoop(cl, flows, 0, func(i int, t units.Time) {
		lat.Add(float64(t - flows[i].Start))
	})
	out.Sent = uint64(len(flows))
	for i, n := range deliveries {
		if failed[i] {
			out.Failed++
		}
		if n > 0 {
			out.Delivered++
			out.Duplicated += uint64(n - 1)
			if failed[i] {
				out.Overlap++
			}
		}
	}
	hosts := topo.Hosts()
	for _, h := range hosts {
		s := cl.Host(h).Stats()
		out.Retransmits += s.Retransmits
		out.PeersDead += s.PeersDeclaredDead
		out.StaleDrops += s.EpochStaleDrops
		ms := cl.Host(h).MCP().Stats()
		out.PoolDrops += ms.PoolDrops
		out.StaleDrops += ms.StaleEpochDrops
	}
	out.FaultKilled = cl.Net.Stats().FaultKilled
	if det != nil {
		rs := det.Stats()
		out.EpochsPublished = rs.EpochsPublished
		out.Suspects = rs.HostsSuspected
		out.Confirms = rs.HostsConfirmed
		out.Resurrections = rs.Resurrections
		out.Probes = rs.ProbesSent
		out.VerifyProbes = rs.VerifyProbes
		out.Refutations = rs.Refutations
		out.Digests = rs.DigestsSent
		out.Piggybacks = rs.DataPiggybacks
		if rs.Detection.N() > 0 {
			out.DetectionAvg = units.Time(rs.Detection.Mean())
		}
		if rs.Convergence.N() > 0 {
			out.ConvergenceAvg = units.Time(rs.Convergence.Mean())
		}
		det.PublishMetrics(obs.reg)
	}
	if lat.N() > 0 {
		out.AvgLatency = units.Time(lat.Mean())
		out.P99Latency = units.Time(lat.Percentile(99))
	}
	obs.finish(cl)
	return out, nil
}

// variantFor returns the firmware variant a routing needs.
func variantFor(alg *routing.UpDownEngine) mcp.Variant {
	if alg.ITB {
		return mcp.ITB
	}
	return mcp.Original
}

// hostSlice lists the cluster's GM hosts in deterministic topology
// order.
func hostSlice(cl *Cluster) []*gm.Host {
	hosts := cl.Topo.Hosts()
	out := make([]*gm.Host, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, cl.Host(h))
	}
	return out
}

// WriteTable renders the study.
func (r FaultReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Fault campaigns: %s, %d switches\n", r.Algorithm, r.Switches)
	fmt.Fprintf(w, "%-12s %6s %6s %6s %6s %5s %7s %6s %6s %6s %10s %12s %9s\n",
		"campaign", "events", "sent", "delivd", "failed", "dup", "retrans", "killed", "dead", "epochs", "detect", "avg-latency", "degrade")
	row := func(o CampaignOutcome) {
		degrade := "-"
		if r.Baseline.AvgLatency > 0 && o.AvgLatency > 0 {
			degrade = fmt.Sprintf("%.2fx", float64(o.AvgLatency)/float64(r.Baseline.AvgLatency))
		}
		detect := "-"
		if o.DetectionAvg > 0 {
			detect = o.DetectionAvg.String()
		}
		fmt.Fprintf(w, "%-12s %6d %6d %6d %6d %5d %7d %6d %6d %6d %10s %12s %9s\n",
			o.Name, o.Events, o.Sent, o.Delivered, o.Failed, o.Duplicated,
			o.Retransmits, o.FaultKilled, o.PeersDead, o.EpochsPublished, detect, o.AvgLatency, degrade)
	}
	row(r.Baseline)
	for _, o := range r.Campaigns {
		row(o)
	}
}
