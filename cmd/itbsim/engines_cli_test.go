package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEnginesStudyGoldenDeterministic is the CLI acceptance check for
// the routing-engine comparison: `itbsim -exp engines` must emit
// byte-identical output at -workers 1 and -workers 4 (cells dispatch
// through the parallel runner; rows and metrics merge in cell order),
// and match the committed goldens: the 256-host table, the CSV of the
// default 64/256/1024 grid, and the sha256 of that grid's -metrics
// JSON. A deliberate engine change regenerates them with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestEnginesStudyGolden
func TestEnginesStudyGoldenDeterministic(t *testing.T) {
	grid := []string{"-exp", "engines", "-seed", "3", "-csv"}
	checkGoldens(t, buildItbsim(t), []goldenCase{
		{"engines.golden", []string{"-exp", "engines", "-hosts", "256", "-seed", "3"}, false},
		{"engines_csv.golden", grid, false},
		{"engines_metrics.golden", grid, true},
	})
}

// TestEnginesUnknownEngineRejected locks the -engine validation: a
// name that matches no registered engine must exit non-zero before any
// experiment runs and list the valid engines.
func TestEnginesUnknownEngineRejected(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "engines", "-engine", "no-such-engine").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown -engine exited 0; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running itbsim: %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	text := string(out)
	if !strings.Contains(text, `unknown engine "no-such-engine"`) {
		t.Errorf("error does not name the bad engine:\n%s", text)
	}
	for _, name := range []string{"updown-itb", "layered-ksp", "minimal-escape"} {
		if !strings.Contains(text, name) {
			t.Errorf("error does not list valid engine %q:\n%s", name, text)
		}
	}
}

// TestEnginesUnroutableTopologyRejected locks the other rejection
// path: a topology no engine can route — here a disconnected sample,
// which the serializer accepts but every engine refuses — must exit
// non-zero and still list the valid engines, so the caller can tell a
// bad topology from a bad engine choice.
func TestEnginesUnroutableTopologyRejected(t *testing.T) {
	bin := buildItbsim(t)
	topo := filepath.Join(t.TempDir(), "disconnected.topo")
	text := "switch 4\nswitch 4\nhost a\nhost b\nlink 0 0 2 0 LAN\nlink 1 0 3 0 LAN\n"
	if err := os.WriteFile(topo, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-exp", "engines", "-topofile", topo).CombinedOutput()
	if err == nil {
		t.Fatalf("disconnected topology exited 0; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running itbsim: %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	str := string(out)
	if !strings.Contains(str, "not connected") {
		t.Errorf("error does not explain the topology problem:\n%s", str)
	}
	if !strings.Contains(str, "valid engines:") || !strings.Contains(str, "updown-itb") {
		t.Errorf("error does not list valid engines:\n%s", str)
	}
}
