// Command benchdiff turns `go test -bench` output into a compact JSON
// summary and compares two such summaries for regressions. It is the
// engine behind the bench-gate CI job: `make bench-json` pipes the
// guarded benchmarks through `benchdiff -emit` to produce the
// Makefile's $(BENCH_JSON), and the gate then runs `benchdiff
// -baseline BENCH_baseline.json -current $(BENCH_JSON)`, which exits non-zero
// on a >15% ns/op regression or on allocs/op growth beyond a 0.1%
// noise floor. The floor exists because the end-to-end benchmarks
// count allocations through sync.Pool, whose GC-driven evictions make
// allocs/op nondeterministic at the ~0.05% level even on identical
// code; a real leak (one allocation per packet or per event) costs
// thousands of allocs/op and still trips instantly. The hot path's
// exact zero-allocation budget is pinned separately by
// testing.AllocsPerRun tests — see DESIGN.md §8.
//
// With -count > 1 each benchmark appears several times in the input;
// the summary keeps the per-metric minimum, the standard way to
// suppress scheduler noise on shared CI runners. A benchmark's
// gc-cycles/op metric (collections per op) is carried into the
// summary and printed beside allocs/op, but never gated: the
// collector's pacing depends on the heap the whole process holds. A
// route-table benchmark's B/route metric (the heap a built table
// retains per route) is carried and printed the same way.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's summary. GCCyclesPerOp is the
// collections the benchmark's timed loop ran per op (its
// gc-cycles/op metric), and BytesPerRoute the heap a route table
// retains per route (its B/route metric): both reported, never gated.
type Result struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	GCCyclesPerOp float64 `json:"gc_cycles_per_op,omitempty"`
	BytesPerRoute float64 `json:"bytes_per_route,omitempty"`
}

// Summary is the emitted JSON document.
type Summary struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	emit := flag.String("emit", "", "parse `go test -bench` output on stdin and write a JSON summary to this file")
	baseline := flag.String("baseline", "", "baseline JSON summary to compare against")
	current := flag.String("current", "", "current JSON summary to compare")
	nsTol := flag.Float64("ns-tolerance", 15, "allowed ns/op regression in percent")
	allocTol := flag.Float64("alloc-tolerance", 0.1, "allowed allocs/op growth in percent (pool-eviction noise floor)")
	flag.Parse()

	switch {
	case *emit != "":
		if err := emitSummary(os.Stdin, *emit); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	case *baseline != "" && *current != "":
		regressions, err := compare(*baseline, *current, *nsTol, *allocTol, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			fmt.Printf("FAIL: %d regression(s)\n", regressions)
			os.Exit(1)
		}
		fmt.Println("PASS: no regressions")
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff -emit out.json < bench.txt")
		fmt.Fprintln(os.Stderr, "       benchdiff -baseline base.json -current cur.json [-ns-tolerance 15] [-alloc-tolerance 0.1]")
		os.Exit(2)
	}
}

func emitSummary(r io.Reader, path string) error {
	sum, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	data, err := marshalStable(sum)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parseBench extracts per-benchmark metrics from `go test -bench`
// output, keeping the minimum of each metric across repeated runs.
func parseBench(r io.Reader) (Summary, error) {
	sum := Summary{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res, seen := sum.Benchmarks[name]
		got := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !seen || v < res.NsPerOp {
					res.NsPerOp = v
				}
				got = true
			case "B/op":
				if !seen || v < res.BytesPerOp {
					res.BytesPerOp = v
				}
				got = true
			case "allocs/op":
				if !seen || v < res.AllocsPerOp {
					res.AllocsPerOp = v
				}
				got = true
			case "gc-cycles/op":
				if !seen || v < res.GCCyclesPerOp {
					res.GCCyclesPerOp = v
				}
			case "B/route":
				if !seen || v < res.BytesPerRoute {
					res.BytesPerRoute = v
				}
			}
		}
		if got {
			sum.Benchmarks[name] = res
		}
	}
	return sum, sc.Err()
}

// marshalStable renders the summary with sorted keys and a trailing
// newline, so committed baselines diff cleanly.
func marshalStable(sum Summary) ([]byte, error) {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func loadSummary(path string) (Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return Summary{}, fmt.Errorf("%s: %w", path, err)
	}
	return sum, nil
}

// compare reports each benchmark's delta and counts regressions:
// ns/op or allocs/op beyond their respective tolerances.
func compare(basePath, curPath string, nsTol, allocTol float64, w io.Writer) (regressions int, err error) {
	base, err := loadSummary(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := loadSummary(curPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "REGRESSION %s: missing from current run\n", name)
			regressions++
			continue
		}
		nsDelta := pctDelta(b.NsPerOp, c.NsPerOp)
		allocDelta := c.AllocsPerOp - b.AllocsPerOp
		status := "ok"
		if nsDelta > nsTol {
			status = fmt.Sprintf("REGRESSION ns/op +%.1f%% (limit %.0f%%)", nsDelta, nsTol)
			regressions++
		}
		// A zero-alloc baseline stays exact: pctDelta cannot express
		// growth from zero, and zero is a budget, not a measurement.
		allocPct := pctDelta(b.AllocsPerOp, c.AllocsPerOp)
		if allocPct > allocTol || (b.AllocsPerOp == 0 && allocDelta > 0) {
			status = fmt.Sprintf("REGRESSION allocs/op +%g (+%.3f%%, limit %g%%)", allocDelta, allocPct, allocTol)
			regressions++
		}
		perRoute := ""
		if b.BytesPerRoute != 0 || c.BytesPerRoute != 0 {
			perRoute = fmt.Sprintf("  B/route %6.4g -> %6.4g", b.BytesPerRoute, c.BytesPerRoute)
		}
		fmt.Fprintf(w, "%-28s ns/op %12.0f -> %12.0f (%+.1f%%)  allocs/op %10.0f -> %10.0f  gc-cycles/op %6.3g -> %6.3g%s  %s\n",
			name, b.NsPerOp, c.NsPerOp, nsDelta, b.AllocsPerOp, c.AllocsPerOp, b.GCCyclesPerOp, c.GCCyclesPerOp, perRoute, status)
	}
	return regressions, nil
}

func pctDelta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / base
}
