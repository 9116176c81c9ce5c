package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

// studySeed is the nightly preset's seed. fattree-collective and
// churn-72 keep it whatever --seed says: with the seed drawing their
// background traffic, topology and fault campaigns, their host time
// swings by up to ±15 % from seed to seed, wider than the bounds a
// regression is judged by.
const studySeed = 3

// fattree-collective: a ring allreduce under open-loop uniform
// background traffic, then the RPC fan-out, on fattree-64 through
// core.RunLoadStudy with GM acknowledgements on.
var collectiveParts = []struct {
	pattern string
	loads   []float64
}{
	{"allreduce", []float64{0.05, 0.3}},
	{"rpc", []float64{0.05}},
}

// itbCluster builds a cluster the way the load and recovery studies
// build their cells: updown-itb routes, ITB firmware and a
// receive-buffer pool, with the cell's GM parameters.
func itbCluster(topo *topology.Topology, recvBuffers int, tune func(*gm.Params)) (*core.Cluster, error) {
	eng, _ := routing.EngineByName("updown-itb")
	cfg := core.Config{
		Topo:   topo,
		Engine: eng,
		MCP:    mcp.DefaultConfig(mcp.ITB),
		GM:     gm.DefaultParams(),
		Fabric: fabric.DefaultParams(),
	}
	cfg.MCP.BufferPool = true
	cfg.MCP.RecvBuffers = recvBuffers
	tune(&cfg.GM)
	return core.NewCluster(cfg)
}

// setupStudy times the construction of a study's topology and of one
// of its cell clusters, so that the set-up cost of a study's distinct
// cell is measured from outside; the study itself rebuilds both for
// every cell inside the run.
func setupStudy(r *rep, build func() (*topology.Topology, error), recvBuffers int, tune func(*gm.Params)) error {
	var topo *topology.Topology
	if err := r.spans.timed("topology.build", func() (err error) {
		topo, err = build()
		return err
	}); err != nil {
		return err
	}
	r.probeTopo = topo
	return r.spans.timed("core.cluster", func() error {
		_, err := itbCluster(topo, recvBuffers, tune)
		return err
	})
}

// studyRegistry returns a metrics registry for traced repetitions only:
// live metrics cost the hot paths, so untraced runs go without.
func studyRegistry(r *rep) *metrics.Registry {
	if r.traced {
		return metrics.NewRegistry()
	}
	return nil
}

func setupCollective(r *rep) (func() error, error) {
	err := setupStudy(r, func() (*topology.Topology, error) {
		return topology.FatTree(topology.DefaultFatTreeConfig(64))
	}, 64, func(*gm.Params) {})
	if err != nil {
		return nil, err
	}
	return func() error {
		reg := studyRegistry(r)
		cfg := core.DefaultLoadStudyConfig(studySeed)
		cfg.Presets = []string{"fattree-64"}
		cfg.Engines = []string{"updown-itb"}
		cfg.Metrics = reg
		for _, part := range collectiveParts {
			cfg.Patterns = []string{part.pattern}
			for _, load := range part.loads {
				cfg.Loads = []float64{load}
				var res core.LoadStudyResult
				// The study itself fails a collective that does not finish
				// or whose checksum is wrong.
				if err := r.unit(fmt.Sprintf("%s%.2f", part.pattern, load), func() (err error) {
					res, err = core.RunLoadStudy(cfg)
					return err
				}); err != nil {
					return err
				}
				row := res.Rows[0]
				r.attempted += row.FlowsSent + row.Rejected
				if part.pattern == "allreduce" {
					r.check(row.FlowsDone == row.FlowsSent && row.Collective > 0,
						"allreduce at load %.2f: %d of %d hops", load, row.FlowsDone, row.FlowsSent)
				} else {
					r.check(row.FlowsDone <= row.FlowsSent, "rpc at load %.2f: %d completed of %d issued", load, row.FlowsDone, row.FlowsSent)
				}
				res.WriteTable(&r.rows)
			}
		}
		r.addRegistry(reg)
		return nil
	}, nil
}

// churn-72: the monitor-vs-gossip churn study on 18 switches (72
// hosts), one campaign per (period, churn) cell, each cell its own
// study call.
var (
	churnPeriods = []units.Time{150 * units.Microsecond, 300 * units.Microsecond}
	churnEvents  = []int{3, 6}
)

const churnSwitches = 18

func setupChurn(r *rep) (func() error, error) {
	err := setupStudy(r, func() (*topology.Topology, error) {
		return topology.Generate(topology.DefaultGenConfig(churnSwitches, studySeed))
	}, 16, func(p *gm.Params) {
		// The fault study's GM recovery knobs.
		p.AckTimeout = 150 * units.Microsecond
		p.BackoffFactor = 2
		p.MaxAckTimeout = 2 * units.Millisecond
		p.DeadPeerTimeouts = 6
	})
	if err != nil {
		return nil, err
	}
	return func() error {
		reg := studyRegistry(r)
		for _, det := range []recovery.DetectorKind{recovery.DetectorMonitor, recovery.DetectorGossip} {
			for _, period := range churnPeriods {
				for _, churn := range churnEvents {
					cfg := core.DefaultRecoveryStudyConfig(routing.ITBRouting, churnSwitches, studySeed)
					cfg.Periods, cfg.ChurnEvents = []units.Time{period}, []int{churn}
					cfg.CampaignsPerCell = 1
					cfg.Detector = det
					cfg.Metrics = reg
					var res core.RecoveryStudyResult
					if err := r.unit(fmt.Sprintf("%s.%v.churn%d", det, period, churn), func() (err error) {
						res, err = core.RunRecoveryStudy(cfg)
						return err
					}); err != nil {
						return err
					}
					row := res.Rows[0]
					r.attempted += row.Sent
					r.check(row.Sent > 0 && row.Delivered <= row.Sent,
						"%s period %v churn %d: %d delivered of %d sent", det, period, churn, row.Delivered, row.Sent)
					res.WriteTable(&r.rows)
				}
			}
		}
		r.addRegistry(reg)
		return nil
	}, nil
}
