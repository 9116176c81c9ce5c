// Command benchmark measures the host cost of the ITB simulator on four
// workloads and checks their simulated outputs. Run it from the
// repository root through benchmark/run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload dragonfly-open --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --runs 5 --trace 1 --seed 5 --out set.json
//	bash benchmark/run.sh --compare parent.json change.json
//
// One workload run makes repetitions, each in a fresh child process,
// until --seconds is spent, and reports medians over them. With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer ones from profiled repetitions. A single run ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, the metrics and the rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := flag.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 5, "seed the workloads' inputs are made from")
	secs := flag.Int("seconds", 25, "how long one run of one workload measures, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run (with --runs, a traced run per workload after the plain ones)")
	runs := flag.Int("runs", 1, "runs per workload, interleaved across workloads")
	out := flag.String("out", "", "write every run's results to this JSON file")
	compare := flag.Bool("compare", false, "compare two results files: --compare A.json B.json")
	child := flag.String("child", "", "run one repetition of this workload (used by the benchmark itself)")
	profile := flag.String("profile", "", "CPU profile of a child repetition")
	spans := flag.String("spans", "", "spans file of a child repetition")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, *seed, *profile, *spans)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare needs two results files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	default:
		var selected []string
		if *workload == "all" {
			selected = names
		} else if _, ok := workloadByName(*workload); ok {
			selected = []string{*workload}
		} else {
			err = fmt.Errorf("unknown workload %q (valid: all, %s)", *workload, strings.Join(names, ", "))
			break
		}
		if *trace != 0 && *trace != 1 || *secs < 1 || *runs < 1 {
			err = fmt.Errorf("need --trace 0 or 1, --seconds >= 1 and --runs >= 1")
			break
		}
		budget := time.Duration(*secs) * time.Second
		if len(selected) == 1 && *runs == 1 && *out == "" {
			err = single(selected[0], *seed, budget, *trace == 1)
		} else {
			err = set(selected, *seed, *secs, *runs, *trace == 1, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// single measures one run and ends with the one-line JSON result.
func single(name string, seed int64, budget time.Duration, traced bool) error {
	rec, err := measure(name, seed, budget, traced)
	if err != nil {
		return err
	}
	printRun(name, rec, traced)
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
}

// setFile is a results file: one set of runs of every selected workload.
type setFile struct {
	Seed      int64         `json:"seed"`
	Seconds   int           `json:"seconds"`
	Runs      int           `json:"runs"`
	Host      hostInfo      `json:"host"`
	Workloads []workloadSet `json:"workloads"`
}

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"child_gomaxprocs"`
}

type workloadSet struct {
	Name   string      `json:"name"`
	Rows   string      `json:"rows"`
	Runs   []runRecord `json:"runs"`
	Traced *runRecord  `json:"traced,omitempty"`
}

// set makes runs interleaved across workloads (run 1 of each, then run
// 2 of each, ...), then one traced run of each if asked, checks that
// every run of a workload reproduced the same simulation, and prints
// the medians.
func set(names []string, seed int64, secs, runs int, traced bool, out string) error {
	f := setFile{Seed: seed, Seconds: secs, Runs: runs, Host: hostInfo{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs(),
	}}
	for _, n := range names {
		f.Workloads = append(f.Workloads, workloadSet{Name: n})
	}
	budget := time.Duration(secs) * time.Second
	record := func(ws *workloadSet, tracedRun bool) error {
		rec, err := measure(ws.Name, seed, budget, tracedRun)
		if err != nil {
			return err
		}
		printRun(ws.Name, rec, tracedRun)
		if ws.Rows == "" {
			ws.Rows = rec.Rows
		}
		rec.Rows = ""
		if tracedRun {
			ws.Traced = &rec
		} else {
			ws.Runs = append(ws.Runs, rec)
		}
		return nil
	}
	for i := 0; i < runs; i++ {
		for w := range f.Workloads {
			if err := record(&f.Workloads[w], false); err != nil {
				return err
			}
		}
	}
	if traced {
		for w := range f.Workloads {
			if err := record(&f.Workloads[w], true); err != nil {
				return err
			}
		}
	}
	ok := summarize(os.Stdout, f)
	if out != "" {
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a run failed its checks")
	}
	return nil
}

// summarize prints each workload's end-to-end medians and quartiles
// over the set and reports whether every run was correct and
// reproduced the same sim_digest.
func summarize(w io.Writer, f setFile) bool {
	ok := true
	for _, ws := range f.Workloads {
		runs := slices.Clone(ws.Runs)
		if ws.Traced != nil {
			runs = append(runs, *ws.Traced)
		}
		for _, r := range runs {
			if !r.Correct || r.Digest != runs[0].Digest {
				ok = false
				fmt.Fprintf(w, "%s FAILED: incorrect run or sim_digest differs across the set\n", ws.Name)
				break
			}
		}
		for _, d := range endToEnd {
			var v []float64
			for _, r := range ws.Runs {
				v = append(v, r.Metrics[d.name].Value)
			}
			if len(v) == 0 {
				continue
			}
			q := quartiles(v)
			fmt.Fprintf(w, "%s %s median %.6g %s [q1 %.6g, q3 %.6g] spread %.1f%% over %d runs\n",
				ws.Name, d.name, q[1], d.unit, q[0], q[2], 100*(q[2]-q[0])/q[1], len(v))
		}
	}
	return ok
}

// printRun prints one run as "workload metric value unit" lines.
func printRun(name string, rec runRecord, traced bool) {
	fmt.Printf("%s reps %d\n", name, rec.Reps)
	fmt.Printf("%s wall_scale %.4f cpu_scale %.4f\n", name, rec.WallScale, rec.CPUScale)
	fmt.Printf("%s sim_digest %s\n", name, rec.Digest)
	for _, k := range []string{"fig7_err_ns", "fig8_err_ns"} {
		if v, ok := rec.Fidelity[k]; ok {
			fmt.Printf("%s %s %.3f ns\n", name, k, v)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", name, d.name, rec.Metrics[d.name].Value, d.unit)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, e)
	}
}
