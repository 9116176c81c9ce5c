package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// minPairs is the fewest parent/change run pairs a gain may rest on.
const minPairs = 10

// Verdicts of one metric on one workload.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// verdict applies the acceptance rule to one metric, given the
// parent's per-run values a and the change's b, paired by run index:
//
//   - Where either side's spread (quartile distance over median) is
//     wider than the bound, the metric is unresolved, unless every run
//     of one side reads better than every run of the other.
//   - Otherwise the change regresses when its median is worse than the
//     parent's by more than the bound.
//   - It gains when it wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     quartile distance. No gain is claimed on fewer than minPairs
//     pairs.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	worse := (qb[1] - qa[1]) / qa[1]
	if !lowerBetter {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	switch {
	case spread(qa) > bound || spread(qb) > bound:
		switch {
		case allBetter && pairs >= minPairs:
			return verdictGain, wins, pairs
		case allWorse && worse > bound:
			return verdictRegression, wins, pairs
		}
		return verdictUnresolved, wins, pairs
	case worse > bound:
		return verdictRegression, wins, pairs
	case pairs >= minPairs && 10*wins >= 9*pairs && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] && worse < 0:
		return verdictGain, wins, pairs
	}
	return verdictSame, wins, pairs
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the pair wins and the verdict, then the
// failure fractions, the sim digests and the traced per-layer values.
// It reports whether anything regressed: a metric beyond its bound, or
// a higher failure fraction.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchSpec
	var a, b setFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-19s %-12s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "wins", "verdict")
	for _, wb := range b.Workloads {
		var wa *workloadSet
		for i := range a.Workloads {
			if a.Workloads[i].Name == wb.Name {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			fmt.Fprintf(w, "%-19s not in both files\n", wb.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := runValues(wa.Runs, m.Name), runValues(wb.Runs, m.Name)
			v, wins, pairs := verdict(va, vb, m.Better == "lower", m.Bound)
			regressed = regressed || v == verdictRegression
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-19s %-12s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%% %3d/%-2d  %s\n",
				wb.Name, m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*(qb[1]-qa[1])/qa[1], wins, pairs, v)
		}
		fa, fb := failedFrac(wa.Runs), failedFrac(wb.Runs)
		note := ""
		if fb > fa {
			regressed, note = true, "  "+verdictRegression
		}
		fmt.Fprintf(w, "%-19s %-12s %10.4g %38.4g%s\n", wb.Name, "failed_frac", fa, fb, note)
		if da, db := wa.Runs[0].Digest, wb.Runs[0].Digest; da != db {
			fmt.Fprintf(w, "%-19s sim_digest changed: %.12s -> %.12s (the simulated output differs)\n", wb.Name, da, db)
		}
		if wa.Traced != nil && wb.Traced != nil {
			for _, m := range spec.PerLayer {
				fmt.Fprintf(w, "%-19s   %-26s %14.6g %14.6g %s\n", wb.Name, m.Name,
					wa.Traced.Metrics[m.Name].Value, wb.Traced.Metrics[m.Name].Value, m.Unit)
			}
		}
	}
	return regressed, nil
}

func runValues(runs []runRecord, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func failedFrac(runs []runRecord) float64 {
	var att, failed uint64
	for _, r := range runs {
		att += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(att, 1))
}
