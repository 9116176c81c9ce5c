package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestAllStudiesGoldenDeterministic pins every study through the real
// binary in one invocation per worker count:
//
//	itbsim -exp all -iters 10 -window 100 -switches 8 -metrics m -trace t
//
// Its stdout must match all.golden, and the -metrics JSON and -trace
// JSONL their sha256 goldens (the files are ~8 MB and ~1 MB), at
// -workers 1 and -workers 4. It is the only CLI golden for scaling,
// itbcount, ablation, chunks, trace, fig7 and fig8. A
// deliberate model change regenerates the three with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestAllStudiesGolden
func TestAllStudiesGoldenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study twice")
	}
	bin := buildItbsim(t)
	runWith := func(workers string) [3][]byte {
		t.Helper()
		dir := t.TempDir()
		m := filepath.Join(dir, "metrics.json")
		tr := filepath.Join(dir, "trace.jsonl")
		out, err := exec.Command(bin, "-exp", "all", "-iters", "10", "-window", "100",
			"-switches", "8", "-workers", workers, "-metrics", m, "-trace", tr).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim -exp all -workers %s: %v\n%s", workers, err, out)
		}
		got := [3][]byte{out}
		for i, path := range []string{m, tr} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got[i+1] = []byte(fmt.Sprintf("sha256 %x\n", sha256.Sum256(b)))
		}
		return got
	}
	got1 := runWith("1")
	got4 := runWith("4")
	for i, golden := range []string{"all.golden", "all_metrics.golden", "all_trace.golden"} {
		if !bytes.Equal(got1[i], got4[i]) {
			t.Errorf("%s: output differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				golden, got1[i], got4[i])
			continue
		}
		matchGolden(t, golden, got1[i])
	}
}

// matchGolden compares got with testdata/<golden>, or rewrites the
// golden under REGEN_GOLDEN.
func matchGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
