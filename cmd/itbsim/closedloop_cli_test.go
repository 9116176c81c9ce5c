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
// path: the pattern study (all four destination patterns through the
// throughput sweep), the buffer-pool study (hotspot traffic beyond
// saturation), the fault study (uniform traffic under fault
// campaigns), and the studies that route over a chosen up*/down*
// orientation or compare the two routings (schemes, roots, fidelity,
// app, throughput). Each must emit byte-identical tables at -workers 1
// and -workers 4 and match its committed golden. The throughput
// sweep's -metrics JSON is pinned by its sha256 (the file is ~650 KB).
// A deliberate model change regenerates them with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestClosedLoopGoldens
func TestClosedLoopGoldensDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	small := []string{"-switches", "8", "-window", "200", "-seed", "3"}
	checkGoldens(t, bin, []goldenCase{
		{"patterns.golden", []string{"-exp", "patterns", "-switches", "8", "-seed", "3"}, false},
		{"bufpool.golden", []string{"-exp", "bufpool"}, false},
		{"faults.golden", []string{"-exp", "faults", "-switches", "8", "-seed", "3"}, false},
		{"schemes.golden", append([]string{"-exp", "schemes"}, small...), false},
		{"roots.golden", append([]string{"-exp", "roots"}, small...), false},
		{"fidelity.golden", append([]string{"-exp", "fidelity"}, small...), false},
		{"app.golden", append([]string{"-exp", "app"}, small...), false},
		{"throughput.golden", append([]string{"-exp", "throughput"}, small...), false},
		{"throughput_metrics.golden", append([]string{"-exp", "throughput"}, small...), true},
	})
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
			runWith := func(workers string) []byte {
				t.Helper()
				args := append(append([]string{}, tc.args...), "-workers", workers)
				metrics := filepath.Join(t.TempDir(), "metrics.json")
				if tc.metrics {
					args = append(args, "-metrics", metrics)
				}
				out, err := exec.Command(bin, args...).CombinedOutput()
				if err != nil {
					t.Fatalf("itbsim %s: %v\n%s", strings.Join(args, " "), err, out)
				}
				if tc.metrics {
					js, err := os.ReadFile(metrics)
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
			matchGolden(t, tc.golden, got1)
		})
	}
}
