package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestClosedLoopGoldensDeterministic pins the closed-loop traffic
// path: the sensitivity study (the UD/ITB pair under every destination
// pattern, both release policies, both orderings and a pinned root),
// the buffer-pool study (hotspot traffic beyond saturation), the fault
// study (uniform traffic under fault campaigns), and the other studies
// that compare the two routings (app, throughput). Each must emit
// byte-identical tables at -workers 1 and -workers 4 and match its
// committed golden. The throughput sweep's -metrics JSON is pinned by
// its sha256 (the file is ~650 KB). The patterns, schemes, roots and
// fidelity subtests pin the tables of the studies the sensitivity study
// replaced (see checkFoldedStudies).
// A deliberate model change regenerates them with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestClosedLoopGoldens
func TestClosedLoopGoldensDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	small := []string{"-switches", "8", "-window", "200", "-seed", "3"}
	checkGoldens(t, bin, []goldenCase{
		{"bufpool.golden", []string{"-exp", "bufpool"}, false},
		{"faults.golden", []string{"-exp", "faults", "-switches", "8", "-seed", "3"}, false},
		{"sensitivity.golden", append([]string{"-exp", "sensitivity"}, small...), false},
		{"app.golden", append([]string{"-exp", "app"}, small...), false},
		{"throughput.golden", append([]string{"-exp", "throughput"}, small...), false},
		{"throughput_metrics.golden", append([]string{"-exp", "throughput"}, small...), true},
	})
	checkFoldedStudies(t, bin, small)
}

// foldedStudy is a study folded into the sensitivity study: the
// arguments its golden ran at, and every number of its last table,
// keyed by the sensitivity row that now carries it and then by column
// and value pairs of that row.
type foldedStudy struct {
	name string
	args []string
	want map[string][]string
}

// checkFoldedStudies runs -exp sensitivity at the parameters of each
// folded study's golden, one subtest per study named after it, and
// requires every number of that study's table in the matching
// sensitivity row. A deliberate model change that moves these numbers
// updates them here along with sensitivity.golden.
func checkFoldedStudies(t *testing.T, bin string, small []string) {
	t.Helper()
	studies := []foldedStudy{
		// The pattern study ran at the default window.
		{"patterns", []string{"-exp", "sensitivity", "-switches", "8", "-seed", "3"}, map[string][]string{
			"stock":        {"UD", "0.125", "ITB", "0.190", "ratio", "1.51x"},
			"hotspot":      {"UD", "0.077", "ITB", "0.079", "ratio", "1.03x"},
			"bit-reversal": {"UD", "0.197", "ITB", "0.213", "ratio", "1.08x"},
			"permutation":  {"UD", "0.186", "ITB", "0.259", "ratio", "1.39x"},
		}},
		{"schemes", append([]string{"-exp", "sensitivity"}, small...), map[string][]string{
			"stock":     {"UD-hops", "1.55", "UD", "0.095", "ITB-hops", "1.42", "ITB", "0.163"},
			"DFS order": {"UD-hops", "1.45", "UD", "0.146", "ITB-hops", "1.42", "ITB", "0.165"},
		}},
		{"roots", append([]string{"-exp", "sensitivity"}, small...), map[string][]string{
			"best root":  {"UD-hops", "1.45", "UD-root", "32%", "UD", "0.146", "ITB-hops", "1.42", "ITB-root", "29%", "ITB", "0.171"},
			"worst root": {"UD-hops", "1.55", "UD-root", "42%", "UD", "0.095", "ITB-hops", "1.42", "ITB-root", "32%", "ITB", "0.163"},
		}},
		{"fidelity", append([]string{"-exp", "sensitivity"}, small...), map[string][]string{
			"stock":               {"UD", "0.095", "ITB", "0.163", "ratio", "1.72x"},
			"progressive release": {"UD", "0.102", "ITB", "0.170", "ratio", "1.67x"},
		}},
	}
	outs := map[string][]byte{} // by arguments: three studies share one run
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			key := strings.Join(st.args, " ")
			if outs[key] == nil {
				outs[key] = runWorkers(t, bin, st.args, false)
			}
			cells := sensitivityCells(t, outs[key])
			for row, pairs := range st.want {
				for i := 0; i < len(pairs); i += 2 {
					col, want := pairs[i], pairs[i+1]
					if got := cells[row][col]; got != want {
						t.Errorf("%s row %q column %s = %q, want %q", st.name, row, col, got, want)
					}
				}
			}
		})
	}
}

// sensitivityCells parses the sensitivity table in out into its cells,
// by row label and column name.
func sensitivityCells(t *testing.T, out []byte) map[string]map[string]string {
	t.Helper()
	const labelWidth = 20 // the table's %-20s factor column
	cells := map[string]map[string]string{}
	var cols []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "factor ") {
			cols = strings.Fields(line)[1:]
			continue
		}
		if cols == nil || len(line) <= labelWidth {
			continue
		}
		fields := strings.Fields(line[labelWidth:])
		if len(fields) != len(cols) {
			break
		}
		row := map[string]string{}
		for i, c := range cols {
			row[c] = fields[i]
		}
		cells[strings.TrimSpace(line[:labelWidth])] = row
	}
	if len(cells) == 0 {
		t.Fatalf("no sensitivity table in output:\n%s", out)
	}
	return cells
}

// goldenCase is one itbsim invocation pinned by a committed golden.
type goldenCase struct {
	golden string
	args   []string
	// metrics replaces the output by the sha256 of the -metrics JSON
	// the run writes.
	metrics bool
}

// checkGoldens runs every case at -workers 1 and -workers 4, one
// subtest per golden: both outputs must be byte-identical and match
// the committed golden, or rewrite it under REGEN_GOLDEN.
func checkGoldens(t *testing.T, bin string, cases []goldenCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			matchGolden(t, tc.golden, runWorkers(t, bin, tc.args, tc.metrics))
		})
	}
}

// runWorkers runs itbsim with args at -workers 1 and -workers 4 and
// returns the output, which must be byte-identical between the two.
// With metrics the output is the sha256 of the -metrics JSON instead.
func runWorkers(t *testing.T, bin string, args []string, metrics bool) []byte {
	t.Helper()
	runWith := func(workers string) []byte {
		t.Helper()
		args := append(append([]string{}, args...), "-workers", workers)
		path := filepath.Join(t.TempDir(), "metrics.json")
		if metrics {
			args = append(args, "-metrics", path)
		}
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		if metrics {
			js, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(fmt.Sprintf("sha256 %x\n", sha256.Sum256(js)))
		}
		return out
	}
	got1 := runWith("1")
	got4 := runWith("4")
	if !bytes.Equal(got1, got4) {
		t.Fatalf("output differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got1, got4)
	}
	return got1
}
