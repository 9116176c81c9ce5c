package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// The benchmark's open-loop cell, read at the load study's cut-off,
// must be the load study's row for the same cell.
func TestOpenCellReproducesLoadStudy(t *testing.T) {
	const seed = 5
	window := 100 * units.Microsecond
	cfg := core.DefaultLoadStudyConfig(seed)
	cfg.Presets = []string{"dragonfly-72"}
	cfg.Engines = []string{"updown-itb"}
	cfg.Patterns = []string{"uniform"}
	cfg.Loads = openLoads
	cfg.Sizes = workload.SizeMixConfig{Kind: "fixed", Bytes: openFlowBytes}
	cfg.Warmup, cfg.Window = openWarmup, window
	res, err := core.RunLoadStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, load := range openLoads {
		topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := newOpenCluster(topo)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := openPlan(topo, cl, load, seed+1, openWarmup+window)
		if err != nil {
			t.Fatal(err)
		}
		r := &rep{tally: map[string]uint64{}}
		got := runOpenCell(r, cl, flows, openWarmup, window)
		if len(r.errs) > 0 {
			t.Errorf("load %.2f: %v", load, r.errs)
		}
		want := res.Rows[i]
		if got.sent != want.FlowsSent || got.doneAtCut != want.FlowsDone ||
			got.p50 != want.P50 || got.p99 != want.P99 || got.p999 != want.P999 || got.delivered != want.Delivered {
			t.Errorf("load %.2f: benchmark row %+v, load study row %+v", load, got, want)
		}
		if got.done != uint64(len(flows)) {
			t.Errorf("load %.2f: %d of %d flows delivered", load, got.done, len(flows))
		}
	}
}

func TestFlowPayloadCheck(t *testing.T) {
	p := make([]byte, openFlowBytes)
	stampFlow(p, 42, 7*units.Microsecond)
	if !flowIntact(p, 42, 7*units.Microsecond, openFlowBytes) {
		t.Fatal("intact payload rejected")
	}
	for name, check := range map[string]func() bool{
		"other flow's filler": func() bool { return flowIntact(p, 43, 7*units.Microsecond, openFlowBytes) },
		"wrong stamp":         func() bool { return flowIntact(p, 42, 8*units.Microsecond, openFlowBytes) },
		"truncated":           func() bool { return flowIntact(p[:40], 42, 7*units.Microsecond, openFlowBytes) },
		"flipped byte": func() bool {
			q := append([]byte(nil), p...)
			q[50] ^= 1
			return flowIntact(q, 42, 7*units.Microsecond, openFlowBytes)
		},
	} {
		if check() {
			t.Errorf("%s accepted", name)
		}
	}
}
