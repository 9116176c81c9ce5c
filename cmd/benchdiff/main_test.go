package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig7_CodeOverhead 	       3	   9774981 ns/op	         1.000 gc-cycles/op	       180.9 ns-overhead-max	       136.1 ns-overhead/pkt	 5741816 B/op	   78970 allocs/op
BenchmarkFig7_CodeOverhead 	       3	   9500000 ns/op	         1.333 gc-cycles/op	       180.9 ns-overhead-max	       136.1 ns-overhead/pkt	 5741810 B/op	   78969 allocs/op
BenchmarkSweepParallel-4   	       3	 757393726 ns/op	   4382123 allocs/op
PASS
ok  	repro	1.234s
`

func TestParseBenchKeepsMinimumAcrossCounts(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	fig7, ok := sum.Benchmarks["Fig7_CodeOverhead"]
	if !ok {
		t.Fatalf("Fig7_CodeOverhead missing: %+v", sum)
	}
	if fig7.NsPerOp != 9500000 {
		t.Errorf("ns/op = %v, want min 9500000", fig7.NsPerOp)
	}
	if fig7.AllocsPerOp != 78969 {
		t.Errorf("allocs/op = %v, want min 78969", fig7.AllocsPerOp)
	}
	if fig7.BytesPerOp != 5741810 {
		t.Errorf("B/op = %v, want min 5741810", fig7.BytesPerOp)
	}
	if fig7.GCCyclesPerOp != 1 {
		t.Errorf("gc-cycles/op = %v, want min 1", fig7.GCCyclesPerOp)
	}
	// The -GOMAXPROCS suffix must be stripped.
	if _, ok := sum.Benchmarks["SweepParallel"]; !ok {
		t.Errorf("SweepParallel (suffix-stripped) missing: %+v", sum)
	}
}

func writeSummary(t *testing.T, dir, name string, sum Summary) string {
	t.Helper()
	data, err := marshalStable(sum)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareDetectsRegressions(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", Summary{Benchmarks: map[string]Result{
		"Fast":     {NsPerOp: 1000, AllocsPerOp: 10},
		"Steady":   {NsPerOp: 1000, AllocsPerOp: 10},
		"Alloc":    {NsPerOp: 1000, AllocsPerOp: 10},
		"Vanished": {NsPerOp: 1000, AllocsPerOp: 10},
	}})
	cur := writeSummary(t, dir, "cur.json", Summary{Benchmarks: map[string]Result{
		"Fast":   {NsPerOp: 500, AllocsPerOp: 5},   // improvement: fine
		"Steady": {NsPerOp: 1100, AllocsPerOp: 10}, // +10% ns: within 15%
		"Alloc":  {NsPerOp: 1000, AllocsPerOp: 11}, // +10% allocs: beyond the noise floor
	}})
	var out strings.Builder
	n, err := compare(base, cur, 15, 0.1, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Alloc regression + missing Vanished = 2.
	if n != 2 {
		t.Errorf("regressions = %d, want 2\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "Alloc") || !strings.Contains(out.String(), "Vanished") {
		t.Errorf("report misses offenders:\n%s", out.String())
	}
}

func TestCompareNsTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", Summary{Benchmarks: map[string]Result{
		"Slow": {NsPerOp: 1000, AllocsPerOp: 0},
	}})
	cur := writeSummary(t, dir, "cur.json", Summary{Benchmarks: map[string]Result{
		"Slow": {NsPerOp: 1200, AllocsPerOp: 0}, // +20%
	}})
	var out strings.Builder
	if n, _ := compare(base, cur, 15, 0.1, &out); n != 1 {
		t.Errorf("regressions = %d, want 1 (+20%% ns/op beyond 15%%)\n%s", n, out.String())
	}
	out.Reset()
	if n, _ := compare(base, cur, 25, 0.1, &out); n != 0 {
		t.Errorf("regressions = %d, want 0 with 25%% tolerance\n%s", n, out.String())
	}
}

// TestCompareAllocTolerance pins the allocs/op noise floor: growth
// within the tolerance (sync.Pool eviction jitter on multi-million
// alloc end-to-end runs) passes, growth beyond it fails, and a
// zero-alloc baseline remains an exact budget — any growth at all
// from zero fails regardless of the percentage floor.
func TestCompareAllocTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", Summary{Benchmarks: map[string]Result{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 2_000_000},
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}})
	cur := writeSummary(t, dir, "cur.json", Summary{Benchmarks: map[string]Result{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 2_000_600}, // +0.03%: noise
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}})
	var out strings.Builder
	if n, _ := compare(base, cur, 15, 0.1, &out); n != 0 {
		t.Errorf("regressions = %d, want 0 (+0.03%% allocs within 0.1%% floor)\n%s", n, out.String())
	}
	leak := writeSummary(t, dir, "leak.json", Summary{Benchmarks: map[string]Result{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 2_010_000}, // +0.5%: a real leak
		"Zero": {NsPerOp: 1000, AllocsPerOp: 1},         // growth from zero: exact budget
	}})
	out.Reset()
	if n, _ := compare(base, leak, 15, 0.1, &out); n != 2 {
		t.Errorf("regressions = %d, want 2 (alloc leak + growth from zero)\n%s", n, out.String())
	}
}

// Collections per op are printed beside allocs/op but never gated:
// a fiftyfold rise is no regression.
func TestCompareReportsGCCyclesUngated(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", Summary{Benchmarks: map[string]Result{
		"Churn": {NsPerOp: 1000, AllocsPerOp: 10, GCCyclesPerOp: 0.1},
	}})
	cur := writeSummary(t, dir, "cur.json", Summary{Benchmarks: map[string]Result{
		"Churn": {NsPerOp: 1000, AllocsPerOp: 10, GCCyclesPerOp: 5},
	}})
	var out strings.Builder
	if n, _ := compare(base, cur, 15, 0.1, &out); n != 0 {
		t.Errorf("regressions = %d, want 0 (gc-cycles/op is not gated)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "gc-cycles/op    0.1 ->      5") {
		t.Errorf("report does not print gc-cycles/op 0.1 -> 5:\n%s", out.String())
	}
}

// A table benchmark's B/route is carried into the summary (the
// minimum across counts) and printed, and its growth is not gated.
func TestBytesPerRouteCarriedUngated(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleBench + `
BenchmarkUpDownITBTableDragonfly342-2   	       3	  30164057 ns/op	        89.26 B/route	         2.667 gc-cycles/op	14196850 B/op	   18769 allocs/op
BenchmarkUpDownITBTableDragonfly342-2   	       3	  29164057 ns/op	        89.50 B/route	         2.000 gc-cycles/op	14196888 B/op	   18769 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Benchmarks["UpDownITBTableDragonfly342"].BytesPerRoute; got != 89.26 {
		t.Errorf("B/route = %v, want min 89.26", got)
	}
	if got := sum.Benchmarks["Fig7_CodeOverhead"].BytesPerRoute; got != 0 {
		t.Errorf("B/route of a benchmark that reports none = %v, want 0", got)
	}
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", Summary{Benchmarks: map[string]Result{
		"Table": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerRoute: 18.5},
	}})
	cur := writeSummary(t, dir, "cur.json", Summary{Benchmarks: map[string]Result{
		"Table": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerRoute: 89.26},
	}})
	var out strings.Builder
	if n, _ := compare(base, cur, 15, 0.1, &out); n != 0 {
		t.Errorf("regressions = %d, want 0 (B/route is not gated)\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "B/route   18.5 ->  89.26") {
		t.Errorf("report does not print B/route 18.5 -> 89.26:\n%s", out.String())
	}
}

func TestEmitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := emitSummary(strings.NewReader(sampleBench), path); err != nil {
		t.Fatal(err)
	}
	sum, err := loadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Errorf("round-trip kept %d benchmarks, want 2", len(sum.Benchmarks))
	}
}
