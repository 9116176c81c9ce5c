package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		// statistics.quantiles(v, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(k float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * k
		}
		return out
	}
	scaleWide := func(k float64) []float64 {
		return []float64{8 * k, 12 * k, 9 * k, 11 * k, 10 * k, 8.5 * k, 11.5 * k, 9.5 * k, 10.5 * k, 10 * k}
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"identical", parent, parent, true, verdictSame},
		{"within bound, not winning", parent, scale(1.05), true, verdictSame},
		{"worse beyond bound", parent, scale(1.2), true, verdictRegression},
		{"faster on every pair", parent, scale(0.9), true, verdictGain},
		{"higher-is-better flips the sign", parent, scale(0.95), false, verdictSame},
		{"higher-is-better regression", parent, scale(0.8), false, verdictRegression},
		{"better but inside the parent's spread", parent, scale(0.995), true, verdictSame},
		{"spread wider than bound", []float64{8, 12, 9, 11, 10}, []float64{12, 8, 10, 9, 11}, true, verdictUnresolved},
		{"wide spread, every run worse", []float64{8, 12, 9, 11, 10}, []float64{30, 40, 35, 32, 38}, true, verdictRegression},
		{"wide spread, every run better", scaleWide(1), scaleWide(0.1), true, verdictGain},
		{"wide spread, every run better, too few pairs", []float64{8, 12, 9, 11, 10}, []float64{1, 2, 1.5, 1.2, 1.8}, true, verdictUnresolved},
		{"faster on every pair, too few pairs", parent[:5], scale(0.9)[:5], true, verdictSame},
	} {
		if got, _, _ := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	set := func(runS float64, failed uint64) setFile {
		ws := workloadSet{Name: "w"}
		for i := 0; i < 5; i++ {
			ws.Runs = append(ws.Runs, runRecord{Attempted: 100, Failed: failed, Digest: "d",
				Metrics: map[string]metric{"run_s": {runS * (1 + 0.001*float64(i)), "s"}}})
		}
		return setFile{Workloads: []workloadSet{ws}}
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}}})
	parent := write("a.json", set(1, 0))
	for _, c := range []struct {
		name  string
		b     setFile
		wantR bool
	}{
		{"same", set(1, 0), false},
		{"slower", set(1.5, 0), true},
		{"more failures", set(1, 1), true},
	} {
		got, err := compareFiles(io.Discard, spec, parent, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.wantR {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.wantR)
		}
	}
}
