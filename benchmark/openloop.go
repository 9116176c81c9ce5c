package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// dragonfly-open: open-loop Poisson uniform traffic of fixed 64-byte
// flows on dragonfly-342 under updown-itb, at a load below and a load
// past the knee, each run until every flow has been delivered. One
// cluster replays both plans openPasses times: its table build is the
// dominant set-up cost, and short repeated cells time steadier than
// one long one.
const (
	openHosts     = 342
	openFlowBytes = 64
	openWarmup    = 50 * units.Microsecond
	openWindow    = 250 * units.Microsecond
	openPasses    = 2
)

var openLoads = []float64{0.1, 0.3}

// newOpenCluster builds the load study's open-loop cell cluster
// (core.RunLoadStudy's uniform cells): GM acknowledgements off and a
// 64-buffer receive pool.
func newOpenCluster(topo *topology.Topology) (*core.Cluster, error) {
	return itbCluster(topo, 64, func(p *gm.Params) { p.DisableAcks = true })
}

// openPlan compiles the uniform flow schedule of one offered load over
// warmup+window, as core.RunLoadStudy does with its seed+1.
func openPlan(topo *topology.Topology, cl *core.Cluster, load float64, seed int64, horizon units.Time) ([]workload.Flow, error) {
	mix, err := workload.FixedSize(openFlowBytes)
	if err != nil {
		return nil, err
	}
	return workload.Plan(topo, workload.PlanConfig{
		Scenario:      workload.ScenarioUniform,
		Load:          load,
		Arrival:       workload.ArrivalConfig{Kind: workload.Poisson},
		Sizes:         mix,
		Seed:          seed,
		Horizon:       horizon,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	})
}

// openRow is the load study's row for one open-loop cell, read at its
// cut-off (window end plus half a window), plus what the benchmark
// sees after running on until every flow has landed.
type openRow struct {
	sent, doneAtCut uint64
	p50, p99, p999  units.Time
	// delivered is goodput per sender as a fraction of link bandwidth.
	delivered float64
	done      uint64
	// quiesced is when the last flow landed, relative to the cell start.
	quiesced units.Time
}

// Flow payload layout: the injection stamp (as the load study writes
// it), then the flow id, then a filler derived from the id, so a
// receiver can tell whose payload it holds and whether it is intact.
func stampFlow(p []byte, id int, at units.Time) {
	binary.LittleEndian.PutUint64(p, uint64(at))
	binary.LittleEndian.PutUint64(p[8:], uint64(id))
	for i := 16; i < len(p); i++ {
		p[i] = byte(id*7 + i)
	}
}

func flowIntact(p []byte, id int, at units.Time, size int) bool {
	if len(p) != size || binary.LittleEndian.Uint64(p) != uint64(at) {
		return false
	}
	for i := 16; i < len(p); i++ {
		if p[i] != byte(id*7+i) {
			return false
		}
	}
	return true
}

// runOpenCell injects flows starting at the cluster's current time,
// reads the load study's row at the cut-off and then runs to
// quiescence, checking that every flow arrived once, at its
// destination, intact.
func runOpenCell(r *rep, cl *core.Cluster, flows []workload.Flow, warmup, window units.Time) openRow {
	t0, fired0 := cl.Eng.Now(), cl.Eng.Fired()
	endAt := warmup + window
	var row openRow
	var lat stats.Summary
	var deliveredBytes uint64
	var dupes, bad, sendErrs int
	seen := make([]bool, len(flows))
	measuring := true
	senders := map[topology.NodeID]bool{}

	for _, h := range cl.Topo.Hosts() {
		cl.Host(h).OnMessage = func(src topology.NodeID, payload []byte, t units.Time) {
			if len(payload) < 16 {
				bad++
				return
			}
			id := int(binary.LittleEndian.Uint64(payload[8:]))
			if id < 0 || id >= len(flows) {
				bad++
				return
			}
			f := flows[id]
			if src != f.Src || h != f.Dst || !flowIntact(payload, id, t0+f.Start, f.Bytes) {
				bad++
				return
			}
			if seen[id] {
				dupes++
				return
			}
			seen[id] = true
			row.done++
			if !measuring || f.Start < warmup || f.Start >= endAt {
				return
			}
			if t-t0 <= endAt {
				deliveredBytes += uint64(len(payload))
			}
			row.doneAtCut++
			lat.Add(float64(t - t0 - f.Start))
		}
	}
	for id, f := range flows {
		senders[f.Src] = true
		if f.Start >= warmup {
			row.sent++
		}
		cl.Eng.ScheduleAt(t0+f.Start, func() {
			payload := make([]byte, f.Bytes)
			stampFlow(payload, id, cl.Eng.Now())
			var start time.Time
			if r.traced {
				start = time.Now()
			}
			err := cl.Host(f.Src).Send(f.Dst, payload)
			if r.traced {
				r.sendNs += uint64(time.Since(start).Nanoseconds())
				r.sends++
			}
			if err != nil {
				sendErrs++
			}
		})
	}

	cl.Eng.RunUntil(t0 + endAt + window/2)
	measuring = false
	if lat.N() > 0 {
		row.p50 = units.Time(lat.Percentile(50))
		row.p99 = units.Time(lat.Percentile(99))
		row.p999 = units.Time(lat.Percentile(99.9))
	}
	row.delivered = float64(deliveredBytes) / window.Seconds() /
		float64(len(senders)) / float64(cl.Net.Params().LinkBandwidth)

	cl.Eng.Run()
	row.quiesced = cl.Eng.Now() - t0
	r.events += cl.Eng.Fired() - fired0
	r.attempted += uint64(len(flows))
	r.check(sendErrs == 0, "%d sends refused", sendErrs)
	r.check(dupes == 0, "%d flows delivered more than once", dupes)
	r.check(bad == 0, "%d deliveries misaddressed or corrupt", bad)
	r.check(row.done == uint64(len(flows)), "%d of %d flows delivered after quiescence", row.done, len(flows))
	r.check(cl.Eng.LiveCount() == 0, "%d live events after quiescence", cl.Eng.LiveCount())
	return row
}

func setupOpen(r *rep) (func() error, error) {
	var topo *topology.Topology
	var cl *core.Cluster
	err := r.spans.timed("topology.build", func() (err error) {
		topo, err = topology.Dragonfly(topology.DefaultDragonflyConfig(openHosts))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := r.spans.timed("core.cluster", func() (err error) {
		cl, err = newOpenCluster(topo)
		return err
	}); err != nil {
		return nil, err
	}
	plans := make([][]workload.Flow, len(openLoads))
	for i, load := range openLoads {
		if err := r.spans.timed("workload.plan", func() (err error) {
			plans[i], err = openPlan(topo, cl, load, r.seed+1, openWarmup+openWindow)
			return err
		}); err != nil {
			return nil, err
		}
	}
	r.probeTopo = topo
	return func() error {
		for pass := 1; pass <= openPasses; pass++ {
			for i, load := range openLoads {
				var row openRow
				_ = r.unit(fmt.Sprintf("load%.2f", load), func() error {
					row = runOpenCell(r, cl, plans[i], openWarmup, openWindow)
					return nil
				})
				r.row("pass=%d load=%.2f flows=%d sent=%d done_at_cut=%d p50_ps=%d p99_ps=%d p999_ps=%d delivered=%.6f done=%d quiesced_ps=%d",
					pass, load, len(plans[i]), row.sent, row.doneAtCut, int64(row.p50), int64(row.p99), int64(row.p999),
					row.delivered, row.done, int64(row.quiesced))
			}
		}
		r.addFabric(cl.Net.Stats())
		for _, h := range topo.Hosts() {
			r.addMCP(cl.Host(h).MCP().Stats())
			r.addGM(cl.Host(h).Stats())
		}
		return nil
	}, nil
}
