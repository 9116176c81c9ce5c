package core

import (
	"bytes"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/trace"
)

// runObs is an observability bundle: a registry and a recorder, either
// of which may be nil. The caller of runCells hands in its own; each
// run gets a private one (owned like the run owns its engine and
// RNGs), merged into the caller's in run input order, so merged
// snapshots and traces are byte-identical at any worker count.
type runObs struct {
	reg *metrics.Registry
	rec *trace.Recorder
}

// fresh allocates private collectors for the dimensions o collects;
// disabled ones stay nil and cost the run nothing.
func (o runObs) fresh() runObs {
	var p runObs
	if o.reg != nil {
		p.reg = metrics.NewRegistry()
	}
	if o.rec != nil {
		p.rec = trace.NewRecorder(0)
	}
	return p
}

// install points a cluster config at the per-run collectors.
func (o runObs) install(cfg *Config) {
	cfg.Metrics = o.reg
	if o.rec != nil {
		cfg.Trace = o.rec
	}
}

// finish publishes the cluster's end-of-run counters into the per-run
// registry (no-op when metrics are disabled).
func (o runObs) finish(cl *Cluster) {
	cl.PublishMetrics(o.reg)
}

// runCells is the one cell runner every study dispatches through: it
// runs run once per cell on the parallel runner, each with private
// collectors for the dimensions dst collects, and returns the values
// in cell order. Once every run has succeeded, each run's metrics
// merge into dst under prefix(i, value) and its trace events replay
// into dst, in cell order. prefix is called only when dst collects
// metrics.
func runCells[C, R any](cells []C, dst runObs, prefix func(i int, r R) string, run func(c C, o runObs) (R, error)) ([]R, error) {
	type out struct {
		val R
		obs runObs
	}
	outs, err := runner.Map(cells, func(c C) (out, error) {
		o := dst.fresh()
		v, err := run(c, o)
		return out{v, o}, err
	})
	if err != nil {
		return nil, err
	}
	vals := make([]R, len(outs))
	for i, o := range outs {
		vals[i] = o.val
		if dst.reg != nil {
			dst.reg.MergePrefixed(prefix(i, o.val), o.obs.reg)
		}
		if dst.rec != nil {
			for _, e := range o.obs.rec.Events() {
				dst.rec.Record(e)
			}
		}
	}
	return vals, nil
}

// topoText serializes a topology once so that every cell can read a
// private copy with readTopo: topologies are not goroutine-safe.
func topoText(t *topology.Topology, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = topology.Write(&buf, t)
	return buf.Bytes(), err
}

// irregularText generates and serializes the random irregular network
// of the closed-loop studies.
func irregularText(switches int, seed int64) ([]byte, error) {
	return topoText(topology.Generate(topology.DefaultGenConfig(switches, seed)))
}

// readTopo deserializes a cell's private topology copy.
func readTopo(text []byte) (*topology.Topology, error) {
	return topology.Read(bytes.NewReader(text))
}
