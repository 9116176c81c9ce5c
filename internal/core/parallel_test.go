package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/units"
)

// Determinism-under-concurrency suite: every driver that dispatches
// through internal/runner must produce byte-identical rendered output
// with workers=1 and workers=N. This is the certification that the
// engine's byte-for-byte reproducibility contract — each run confined
// to one goroutine with a private engine and seeded RNGs, results
// merged in input order — survives the parallel conversion. The suite
// runs in CI under -race (make test-race), so it also proves the runs
// share no mutable state.

// renderTwice renders the experiment once at workers=1 and once at
// workers=4 and returns both outputs.
func renderTwice(t *testing.T, render func() (string, error)) (serial, parallel string) {
	t.Helper()
	defer runner.SetWorkers(0)
	runner.SetWorkers(1)
	serial, err := render()
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	runner.SetWorkers(4)
	parallel, err = render()
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	return serial, parallel
}

func assertDeterministic(t *testing.T, render func() (string, error)) {
	t.Helper()
	serial, parallel := renderTwice(t, render)
	if serial == "" {
		t.Fatal("experiment rendered nothing")
	}
	if serial != parallel {
		t.Errorf("output differs between workers=1 and workers=4.\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
}

func TestFig7Deterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunFig7(Fig7Config{Sizes: []int{1, 256, 2048}, Iterations: 8, Warmup: 1})
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		if err := res.WriteCSV(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	})
}

func TestFig8Deterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunFig8(Fig8Config{Sizes: []int{1, 256, 2048}, Iterations: 8, Warmup: 1})
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		if err := res.WriteCSV(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	})
}

func TestSweepDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		c := curve{switches: 8, alg: routing.ITBRouting, loads: []float64{0.1, 0.3, 0.6}}
		sweeps, err := runCurves([]curve{c}, nil, 5, 200*units.Microsecond, nil, nil)
		if err != nil {
			return "", err
		}
		res := sweeps[0]
		var sb strings.Builder
		res.WriteTable(&sb)
		// The points at full precision, beyond the table's rounding.
		for _, p := range res.Points {
			fmt.Fprintf(&sb, "%v %v %d %d %d %d\n", p.Offered, p.Accepted, p.AvgLatency(), p.P99Latency(), p.Sent, p.Delivered)
		}
		return sb.String(), nil
	})
}

func TestITBCountDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunITBCount(2, 64, 5, nil)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		if err := res.WriteCSV(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	})
}

func TestAblationsDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunAblations([]int{256, 1024}, 5, nil)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		return sb.String(), nil
	})
}

func TestScalingDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunScaling([]int{4, 8}, 5, 150*units.Microsecond)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		return sb.String(), nil
	})
}

// renderSensitivityRows runs only the named rows of the sensitivity
// study on the 8-switch network of seed, at a 150 µs window, and
// renders them. A row's cells are seeded by the study seed alone, so
// it reads the same as in the full study.
func renderSensitivityRows(seed int64, factors ...string) (string, error) {
	const switches = 8
	text, err := irregularText(switches, seed)
	if err != nil {
		return "", err
	}
	specs, err := sensitivityGrid(switches, text)
	if err != nil {
		return "", err
	}
	var picked []sensitivitySpec
	for _, s := range specs {
		if slices.Contains(factors, s.label) {
			if s.pair == nil {
				s.pair = specs[0].pair
			}
			picked = append(picked, s)
		}
	}
	if len(picked) != len(factors) {
		return "", fmt.Errorf("%d rows match %v", len(picked), factors)
	}
	rows, err := runSensitivityRows(picked, switches, text, seed, 150*units.Microsecond)
	if err != nil {
		return "", err
	}
	res := SensitivityResult{Switches: switches, Rows: rows}
	var sb strings.Builder
	res.WriteTable(&sb)
	return sb.String(), nil
}

// The four determinism tests below cover the sensitivity study's rows
// between them, each row group at the seed of the study it replaced.

func TestPatternStudyDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		return renderSensitivityRows(7, "stock", "hotspot", "bit-reversal", "permutation")
	})
}

func TestRootStudyDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		return renderSensitivityRows(13, "best root", "worst root")
	})
}

func TestSchemesDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		return renderSensitivityRows(5, "stock", "DFS order")
	})
}

func TestModelFidelityDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		return renderSensitivityRows(5, "stock", "progressive release")
	})
}

func TestChunkAblationDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunChunkAblation(2048, []int{0, 256, 1024}, 4)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		return sb.String(), nil
	})
}

func TestAppStudyDeterministicAcrossWorkers(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunAppStudy(AppStudyConfig{Switches: 8, Seed: 9, Supersteps: 3, MsgBytes: 1024})
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		return sb.String(), nil
	})
}

// renderRowsAndSnapshot renders a study's rows and its merged metrics
// snapshot: the tables and CLI goldens compare rendered text only, so
// this also pins the unrounded row fields and every metric.
func renderRowsAndSnapshot(rows any, reg *metrics.Registry) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v\n", rows)
	if err := reg.Snapshot().WriteJSON(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func TestLoadStudyDeterministicAcrossWorkers(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		cfg := DefaultLoadStudyConfig(3)
		cfg.Presets = []string{"fattree-16", "dragonfly-72"}
		cfg.Engines = []string{"updown-itb", "minimal-escape"}
		// The dragonfly allreduce alone costs seconds under -race;
		// rpc keeps a closed-loop driver in the grid.
		cfg.Patterns = []string{"uniform", "incast", "rpc"}
		cfg.Loads = []float64{0.5}
		cfg.Window = 50 * units.Microsecond
		cfg.Warmup = 10 * units.Microsecond
		cfg.Metrics = metrics.NewRegistry()
		res, err := RunLoadStudy(cfg)
		if err != nil {
			return "", err
		}
		return renderRowsAndSnapshot(res.Rows, cfg.Metrics)
	})
}

func TestVCStudyDeterministicAcrossWorkers(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		cfg := DefaultVCStudyConfig(3)
		cfg.Presets = []string{"fattree-16", "dragonfly-72"}
		cfg.LaneCounts = []int{1, 2}
		cfg.Window = 50 * units.Microsecond
		cfg.Warmup = 10 * units.Microsecond
		cfg.Metrics = metrics.NewRegistry()
		res, err := RunVCStudy(cfg)
		if err != nil {
			return "", err
		}
		return renderRowsAndSnapshot(res.Rows, cfg.Metrics)
	})
}

// TestSweepPanicIsolatedToOneRun certifies the per-run panic capture:
// an impossible configuration must fail its own run with a captured
// panic or error, identified by index, without tearing down the
// process.
func TestSweepPanicIsolatedToOneRun(t *testing.T) {
	specs := []int{0, 1, 2}
	results := runner.Collect(3, specs, func(i, s int) (SweepResult, error) {
		if s == 1 {
			panic("diverging configuration")
		}
		c := curve{switches: 8, alg: routing.ITBRouting, loads: []float64{0.1}}
		res, err := runCurves([]curve{c}, nil, 5, 100*units.Microsecond, nil, nil)
		if err != nil {
			return SweepResult{}, err
		}
		return res[0], nil
	})
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "diverging configuration") {
		t.Errorf("run 1: err = %v, want captured panic", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("run %d failed alongside panicking sibling: %v", i, results[i].Err)
		}
		if len(results[i].Value.Points) != 1 {
			t.Errorf("run %d lost its result", i)
		}
	}
}
