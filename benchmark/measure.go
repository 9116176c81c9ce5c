package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload: set-up builds its distinct
// cells (topology, tables, clusters, plans) and returns the run.
type workloadDef struct {
	name  string
	setup func(r *rep) (func() error, error)
}

// workloads in the order a set interleaves them. BENCHMARK.json and
// README.md give the reason for each.
var workloads = []workloadDef{
	{"testbed-pingpong", setupPingPong},
	{"dragonfly-open", setupOpen},
	{"fattree-collective", setupCollective},
	{"churn-72", setupChurn},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs, as medians over the run's
// repetitions.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// profiledLayers get a "<layer>.cpu_s" from the traced run's profile.
var profiledLayers = []string{
	"sim", "lanai", "mcp", "fabric", "gm", "routing", "recovery",
	"workload", "topology", "packet", "core", benchBucket,
}

// perLayer are reported by traced runs.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"mcp.itb_forwarded", "count"}, {"mcp.itb_pending_hits", "count"},
		{"mcp.itb_cutthrough_ratio", "ratio"}, {"mcp.pool_drops", "count"},
		{"fabric.injected", "count"}, {"fabric.delivered", "count"},
		{"fabric.dropped", "count"}, {"fabric.bytes_moved", "bytes"},
		{"gm.send_ns", "ns"}, {"gm.acks_sent", "count"},
		{"gm.retransmits", "count"}, {"gm.messages_failed", "count"},
		{"routing.build_s", "s"}, {"routing.lookup_ns", "ns"},
		{"recovery.probes", "count"}, {"recovery.pingreqs", "count"},
		{"recovery.refutations", "count"}, {"recovery.epochs", "count"},
		{"topology.build_s", "s"}, {"core.cluster_s", "s"},
		{"workload.plan_s", "s"}, {"workload.flows", "count"},
		{"packet.pool_outstanding", "count"},
		{"go.allocs", "count"}, {"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: its repetitions, aggregated.
type runRecord struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Reps      int               `json:"reps"`
	// WallScale and CPUScale are the factors the run's wall and CPU
	// times were scaled by (see ref.go).
	WallScale float64 `json:"wall_scale"`
	CPUScale  float64 `json:"cpu_scale"`
	Digest    string  `json:"sim_digest"`
	// Fidelity is |simulated - paper| for Figures 7 and 8, in ns.
	Fidelity map[string]float64 `json:"fidelity,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
	// Rows is the rendered simulated output the digest is taken of.
	Rows string `json:"rows,omitempty"`
}

// Limits on one run: a hung child is killed, and a run makes at least
// minReps repetitions so that its medians mean something.
const (
	repTimeout = 150 * time.Second
	minReps    = 3
	traceDir   = ".bench_build/trace"
)

// childProcs is the GOMAXPROCS of every child: the simulation runs on
// one goroutine and the collector takes the second core.
func childProcs() int { return min(2, runtime.NumCPU()) }

// measure runs one workload for about budget: repetitions, each in a
// fresh child process, one at a time, until the next one would
// overrun, with reference timings between them. A traced run
// alternates profiled and plain repetitions.
func measure(name string, seed int64, budget time.Duration, traced bool) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return runRecord{}, err
		}
	}
	var plain, profiled []repResult
	var profiles []string
	var refs refTimes
	refs.sample()
	start := time.Now()
	for i := 0; ; i++ {
		var profile, spans string
		if traced && i%2 == 0 {
			base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-%d", name, seed, i))
			profile, spans = base+".pprof", base+".spans.jsonl"
		}
		res, err := spawnRep(exe, name, seed, profile, spans)
		if err != nil {
			res = repResult{Errors: []string{err.Error()}}
		}
		refs.sample()
		// Scale the repetition by the reference timings on either side.
		ws := refNominalS / median(refs.wall[len(refs.wall)-2*refSamples:])
		cs := refNominalCPUS / median(refs.cpu[len(refs.cpu)-2*refSamples:])
		res.SetupS *= ws
		for j := range res.Units {
			res.Units[j].WallS *= ws
			res.Units[j].CPUS *= cs
		}
		if profile != "" {
			profiled = append(profiled, res)
			profiles = append(profiles, profile)
		} else {
			plain = append(plain, res)
		}
		n, el := time.Duration(i+1), time.Since(start)
		if len(res.Errors) > 0 || i+1 >= minReps && el+el/n > budget {
			break
		}
	}
	rec := aggregate(append(slices.Clone(plain), profiled...))
	rec.WallScale, rec.CPUScale = refNominalS/median(refs.wall), refNominalCPUS/median(refs.cpu)
	if !traced {
		rec.Metrics = map[string]metric{
			"run_s":       {unitMedians(plain, func(u unitTime) float64 { return u.WallS }), "s"},
			"setup_s":     {median(field(plain, func(r repResult) float64 { return r.SetupS })), "s"},
			"cpu_s":       {unitMedians(plain, func(u unitTime) float64 { return u.CPUS }), "s"},
			"peak_rss_mb": {median(field(plain, func(r repResult) float64 { return r.PeakRSSMB })), "MB"},
		}
		return rec, nil
	}
	if !rec.Correct {
		rec.Metrics = map[string]metric{}
		for _, d := range perLayer {
			rec.Metrics[d.name] = metric{0, d.unit}
		}
		return rec, nil
	}
	layers, err := tracedMetrics(plain, profiled, profiles, rec.WallScale, rec.CPUScale)
	rec.Metrics = layers
	return rec, err
}

// aggregate checks the repetitions against each other and sums their
// operation counts. Any violation, or a digest that differs between
// repetitions, fails the whole run.
func aggregate(reps []repResult) runRecord {
	rec := runRecord{Correct: true, Reps: len(reps), Digest: reps[0].Digest, Fidelity: reps[0].Fidelity, Rows: reps[0].Rows}
	for _, r := range reps {
		rec.Attempted += r.Attempted
		rec.Errors = append(rec.Errors, r.Errors...)
		if r.Digest != rec.Digest {
			rec.Errors = append(rec.Errors, fmt.Sprintf("sim_digest %s differs from %s: the simulation is not deterministic", r.Digest, rec.Digest))
		}
	}
	if len(rec.Errors) > 0 {
		rec.Correct = false
		rec.Attempted = max(rec.Attempted, 1)
		rec.Failed = rec.Attempted
	}
	return rec
}

// tracedMetrics builds the per-layer metrics from the profiled
// repetitions, with the plain ones as the untraced reference. Host
// times are scaled like the end-to-end ones: profile seconds are CPU
// time, the rest wall time.
func tracedMetrics(plain, profiled []repResult, profiles []string, wallScale, cpuScale float64) (map[string]metric, error) {
	byLayer := map[string][]float64{}
	for _, p := range profiles {
		secs, err := profileLayers(p)
		if err != nil {
			return nil, err
		}
		for _, l := range append(slices.Clone(profiledLayers), goBucket) {
			byLayer[l] = append(byLayer[l], secs[l])
		}
	}
	vals := map[string]float64{}
	for _, l := range profiledLayers {
		vals[l+".cpu_s"] = median(byLayer[l])
	}
	vals["go.gc_cpu_s"] = median(byLayer[goBucket])
	for k := range profiled[0].Counts {
		vals[k] = median(field(profiled, func(r repResult) float64 { return r.Counts[k] }))
	}
	wall := func(u unitTime) float64 { return u.WallS }
	vals["trace.overhead_pct"] = 100 * (unitMedians(profiled, wall)/unitMedians(plain, wall) - 1)
	out := map[string]metric{}
	for _, d := range perLayer {
		v := vals[d.name]
		switch {
		case strings.HasSuffix(d.name, "cpu_s"):
			v *= cpuScale
		case d.unit == "s" || d.unit == "ns":
			v *= wallScale
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// spawnRep runs one repetition in a child process and reads back its
// result and resource usage.
func spawnRep(exe, name string, seed int64, profile, spans string) (repResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10)}
	if profile != "" {
		args = append(args, "-profile", profile, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return repResult{}, fmt.Errorf("%s repetition: bad result: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func field(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// unitMedians estimates the run's host cost as the sum, over its
// units, of each unit's median across the repetitions.
func unitMedians(reps []repResult, f func(unitTime) float64) float64 {
	samples := map[string][]float64{}
	for _, r := range reps {
		for _, u := range r.Units {
			samples[u.Name] = append(samples[u.Name], f(u))
		}
	}
	total := 0.0
	for _, v := range samples {
		total += median(v)
	}
	return total
}

// median of the values (0 for none).
func median(v []float64) float64 {
	return quartiles(v)[1]
}

// quartiles returns the first quartile, median and third quartile of
// v the way Python's statistics.quantiles(v, n=4) computes them (its
// default exclusive method), so the spreads reported here are the ones
// a Python reader recomputes.
func quartiles(v []float64) [3]float64 {
	d := slices.Clone(v)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	n, m := len(d), len(d)+1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
