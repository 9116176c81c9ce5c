package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/units"
)

// Metrics determinism suite: every driver that collects metrics must
// produce a byte-identical snapshot at workers=1 and workers=N. The
// snapshots merge per-run registries in run input order, so this is
// the same contract the rendered-table suite certifies, extended to
// the observability plane.

// snapshotJSON renders a registry snapshot to its canonical JSON.
func snapshotJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestFig7MetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		cfg := Fig7Config{Sizes: []int{1, 64, 4096}, Iterations: 20, Warmup: 2, Metrics: reg}
		if _, err := RunFig7(cfg); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

// TestFig7MetricsGolden pins the fig7 metrics snapshot byte for byte
// against a committed golden file — the committed record of what
// `itbsim -exp fig7 -metrics` exports for this configuration.
// Regenerate after a deliberate calibration or schema change with:
//
//	REGEN_GOLDEN=1 go test ./internal/core/ -run TestFig7MetricsGolden
func TestFig7MetricsGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := RunFig7(Fig7Config{Sizes: []int{1, 64, 4096}, Iterations: 20, Warmup: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	got := snapshotJSON(t, reg)

	path := filepath.Join("testdata", "fig7_metrics.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fig7 metrics snapshot drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestFig7TraceDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		rec := trace.NewRecorder(0)
		cfg := Fig7Config{Sizes: []int{1, 256}, Iterations: 5, Warmup: 1, Trace: rec}
		if _, err := RunFig7(cfg); err != nil {
			return "", err
		}
		var sb strings.Builder
		if err := rec.WriteJSONL(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	})
}

func TestFig8MetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		cfg := Fig8Config{Sizes: []int{1, 512}, Iterations: 8, Warmup: 1, Metrics: reg}
		if _, err := RunFig8(cfg); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

func TestSweepMetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		c := curve{switches: 8, alg: routing.ITBRouting, loads: []float64{0.1, 0.3}}
		if _, err := runCurves([]curve{c}, nil, 5, 150*units.Microsecond, reg, []string{""}); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

func TestFaultStudyMetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		cfg := DefaultFaultStudyConfig(routing.ITBRouting, 8, 7)
		cfg.Campaigns = 2
		cfg.Horizon = 300 * units.Microsecond
		cfg.Metrics = reg
		if _, err := RunFaultStudy(cfg); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

func TestITBCountMetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		if _, err := RunITBCount(2, 64, 5, reg); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

func TestAblationsMetricsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		reg := metrics.NewRegistry()
		if _, err := RunAblations([]int{256}, 5, reg); err != nil {
			return "", err
		}
		return snapshotJSON(t, reg), nil
	})
}

// TestMetricsSnapshotContent sanity-checks that the wired layers all
// actually land in a snapshot: fabric counters and per-segment
// histograms, firmware ITB counters, GM counters, queue gauges and the
// routing analysis.
func TestMetricsSnapshotContent(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := RunFig8(Fig8Config{Sizes: []int{256}, Iterations: 5, Warmup: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for _, key := range []string{"ud.fabric.delivered", "ud_itb.fabric.delivered"} {
		if _, ok := s.Counters[key]; !ok {
			t.Errorf("snapshot missing counter %q", key)
		}
	}
	// Host-keyed counters: exact node ids are topology-internal, so
	// match by suffix.
	hasSuffix := func(prefix, suffix string) bool {
		for key, v := range s.Counters {
			if v > 0 && strings.HasPrefix(key, prefix) && strings.HasSuffix(key, suffix) {
				return true
			}
		}
		return false
	}
	if !hasSuffix("ud_itb.mcp.host", ".itb_detects") {
		t.Error("snapshot missing a populated mcp itb_detects counter")
	}
	if !hasSuffix("ud_itb.mcp.host", ".itb_forwarded") {
		t.Error("snapshot missing a populated mcp itb_forwarded counter")
	}
	if !hasSuffix("ud.gm.host", ".messages_sent") {
		t.Error("snapshot missing a populated gm messages_sent counter")
	}
	if _, ok := s.Gauges["ud.routing.avg_link_hops"]; !ok {
		t.Error("snapshot missing routing analysis gauge")
	}
	h, ok := s.Histograms["ud_itb.fabric.segment_latency_ns"]
	if !ok || h.Count == 0 {
		t.Fatalf("snapshot missing populated segment latency histogram: %+v", h)
	}
	if !(h.P50 > 0 && h.P50 <= h.P95 && h.P95 <= h.P99) {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v", h.P50, h.P95, h.P99)
	}
	// The ITB path's per-segment latency must cover more segments than
	// packets injected on the UD path would suggest: every in-transit
	// packet contributes one sample per up*/down* segment.
	udh := s.Histograms["ud.fabric.segment_latency_ns"]
	if h.Count <= udh.Count {
		t.Errorf("ITB run recorded %d segments, UD run %d; expected more (re-injections add segments)",
			h.Count, udh.Count)
	}
}

// TestRunnerWorkerSettingRestored guards the suite's own hygiene: the
// helpers must leave the global worker count at the default.
func TestRunnerWorkerSettingRestored(t *testing.T) {
	runner.SetWorkers(0)
}
