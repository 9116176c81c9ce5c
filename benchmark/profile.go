package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// pkgLayer charges each repro/internal package to one of the layers
// the benchmark reports. Helpers go to the layer that uses them.
var pkgLayer = map[string]string{
	"sim": "sim", "lanai": "lanai", "mcp": "mcp", "fabric": "fabric",
	"gm": "gm", "gmip": "gm",
	"routing": "routing", "mapper": "routing",
	"recovery": "recovery", "faults": "recovery",
	"workload": "workload", "traffic": "workload",
	"topology": "topology", "packet": "packet",
	"core": "core", "metrics": "core", "stats": "core", "trace": "core", "units": "core", "runner": "core",
}

// Buckets for samples without a repro/internal frame: the benchmark's
// own code, and everything else (garbage collection, the scheduler,
// profiling itself).
const (
	benchBucket = "bench"
	goBucket    = "go.gc"
)

// frameBucket returns the bucket a stack frame belongs to, or "" when
// the frame neither names a repro package nor the benchmark.
func frameBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		return "core"
	}
	if strings.HasPrefix(fn, "main.") {
		return benchBucket
	}
	return ""
}

// attribute charges every sample of a `go tool pprof -traces` listing
// to the innermost repro/internal frame on its stack, so allocation and
// map work lands on the layer that caused it; the benchmark's own
// callbacks, which the simulator calls, are charged to the benchmark.
// It returns CPU seconds per bucket.
func attribute(listing string) (map[string]float64, error) {
	out := map[string]float64{}
	var total, sum, value time.Duration
	bucket, inBody, first := "", false, false
	flush := func() {
		if value > 0 {
			out[cmp.Or(bucket, goBucket)] += value.Seconds()
			sum += value
		}
		value, bucket = 0, ""
	}
	sc := bufio.NewScanner(strings.NewReader(listing))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBody, first = true, true
			continue
		case !inBody:
			// The header's "Total samples = 1.74s (96.07%)".
			if _, rest, ok := strings.Cut(line, "Total samples = "); ok {
				v, _, _ := strings.Cut(rest, " ")
				var err error
				if total, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("pprof traces: bad total in %q: %v", line, err)
				}
			}
			continue
		}
		frame := strings.TrimSpace(line)
		if frame == "" {
			continue
		}
		if first {
			// A stack's first line holds its sample value and leaf
			// frame; the lines below name the callers, outward.
			v, rest, ok := strings.Cut(frame, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: bad stack line %q", line)
			}
			value, frame, first = d, strings.TrimSpace(rest), false
		}
		if bucket == "" {
			bucket = frameBucket(strings.TrimSuffix(frame, " (inline)"))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every stack is charged somewhere, so the buckets add up to the
	// profile's total unless the listing was misread.
	if d := sum - total; d > total/20 || d < -total/20 {
		return nil, fmt.Errorf("pprof traces: attributed %v of %v total samples", sum, total)
	}
	return out, nil
}

// profileLayers runs `go tool pprof -traces` on a CPU profile and
// attributes its samples.
func profileLayers(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return attribute(string(out))
}
