package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildMapper compiles the command into a temporary directory.
func buildMapper(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mapper")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building mapper: %v\n%s", err, out)
	}
	return bin
}

// TestRandomBothGolden pins the mapper's report for both routings on
// a small random network: orientation root, route-set statistics and
// the deadlock certificate of each table. A deliberate change
// regenerates it with:
//
//	REGEN_GOLDEN=1 go test ./cmd/mapper/ -run TestRandomBothGolden
func TestRandomBothGolden(t *testing.T) {
	bin := buildMapper(t)
	out, err := exec.Command(bin, "-topology", "random", "-switches", "8", "-seed", "3", "-routing", "both").CombinedOutput()
	if err != nil {
		t.Fatalf("mapper: %v\n%s", err, out)
	}
	path := filepath.Join("testdata", "random_both.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestUnknownRoutingRejected checks that a bad -routing fails before
// the command does any work: it exits 1, names the valid values, and
// writes no DOT file.
func TestUnknownRoutingRejected(t *testing.T) {
	bin := buildMapper(t)
	dot := filepath.Join(t.TempDir(), "x.dot")
	out, err := exec.Command(bin, "-routing", "bogus", "-dot", dot).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("mapper -routing bogus: err = %v, want exit status 1\n%s", err, out)
	}
	for _, want := range []string{`unknown routing "bogus"`, "updown, itb, or both"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(dot); !os.IsNotExist(err) {
		t.Errorf("DOT file written before the routing was rejected (stat: %v)", err)
	}
}
