package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestClosedLoopGoldensDeterministic pins the closed-loop traffic
// path: the pattern study (all four destination patterns through the
// throughput sweep), the buffer-pool study (hotspot traffic beyond
// saturation) and the fault study (uniform traffic under fault
// campaigns). Each must emit byte-identical tables at -workers 1 and
// -workers 4 and match its committed golden. A deliberate model change
// regenerates them with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestClosedLoopGoldens
func TestClosedLoopGoldensDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"patterns.golden", []string{"-exp", "patterns", "-switches", "8", "-seed", "3"}},
		{"bufpool.golden", []string{"-exp", "bufpool"}},
		{"faults.golden", []string{"-exp", "faults", "-switches", "8", "-seed", "3"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			runWith := func(workers string) []byte {
				t.Helper()
				args := append(append([]string{}, tc.args...), "-workers", workers)
				out, err := exec.Command(bin, args...).CombinedOutput()
				if err != nil {
					t.Fatalf("itbsim %s: %v\n%s", strings.Join(args, " "), err, out)
				}
				return out
			}
			got1 := runWith("1")
			got4 := runWith("4")
			if !bytes.Equal(got1, got4) {
				t.Fatalf("output differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got1, got4)
			}
			path := filepath.Join("testdata", tc.golden)
			if os.Getenv("REGEN_GOLDEN") != "" {
				if err := os.WriteFile(path, got1, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got1, want) {
				t.Errorf("drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got1, want)
			}
		})
	}
}
