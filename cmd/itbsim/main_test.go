package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildItbsim compiles the command into a temp dir and returns the
// binary path.
func buildItbsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "itbsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building itbsim: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownExperimentRejected locks the -exp validation: a name that
// matches no experiment must exit non-zero and tell the user what the
// valid names are (silently running nothing looked like success).
func TestUnknownExperimentRejected(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "no-such-experiment").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown -exp exited 0; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running itbsim: %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	text := string(out)
	if !strings.Contains(text, `unknown experiment "no-such-experiment"`) {
		t.Errorf("error does not name the bad experiment:\n%s", text)
	}
	for _, name := range []string{"fig7", "fig8", "costs", "throughput", "faults", "all"} {
		if !strings.Contains(text, name) {
			t.Errorf("error does not list valid experiment %q:\n%s", name, text)
		}
	}
}

// TestKnownExperimentRuns keeps the happy path honest with the
// cheapest experiment: a valid -exp must exit 0 and produce output.
func TestKnownExperimentRuns(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "costs").CombinedOutput()
	if err != nil {
		t.Fatalf("itbsim -exp costs: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cost breakdown") {
		t.Errorf("costs output missing table header:\n%s", out)
	}
}

// TestCSVWithoutCSVFormRejected: -csv on a named study that has no
// CSV form exits 1 before running it and lists the studies that have
// one, instead of printing tables and exiting 0.
func TestCSVWithoutCSVFormRejected(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "throughput", "-csv").Output()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("itbsim -exp throughput -csv: err %v, want exit status 1; output:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if len(out) != 0 {
		t.Errorf("the study ran; stdout:\n%s", out)
	}
	text := string(ee.Stderr)
	if !strings.Contains(text, "throughput: no CSV form") {
		t.Errorf("error does not name the study:\n%s", text)
	}
	for _, s := range core.Studies() {
		if s.CSV && !strings.Contains(text, s.Name) {
			t.Errorf("error does not list CSV study %q:\n%s", s.Name, text)
		}
	}
}

// TestMetricsAndTraceExportDeterministic is the CLI acceptance check
// for the observability flags: `itbsim -exp fig7 -metrics -trace`
// must write byte-identical files at -workers 1 and -workers 4, the
// metrics file must be a JSON snapshot covering both firmware runs,
// and the trace file must be one JSON object per line.
func TestMetricsAndTraceExportDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	dir := t.TempDir()
	export := func(workers string) (metricsJSON, traceJSONL []byte) {
		t.Helper()
		m := filepath.Join(dir, "m"+workers+".json")
		tr := filepath.Join(dir, "t"+workers+".jsonl")
		out, err := exec.Command(bin, "-exp", "fig7", "-iters", "10",
			"-workers", workers, "-metrics", m, "-trace", tr).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim -workers %s: %v\n%s", workers, err, out)
		}
		mb, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return mb, tb
	}
	m1, t1 := export("1")
	m4, t4 := export("4")
	if !bytes.Equal(m1, m4) {
		t.Error("-metrics output differs between -workers 1 and -workers 4")
	}
	if !bytes.Equal(t1, t4) {
		t.Error("-trace output differs between -workers 1 and -workers 4")
	}

	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(m1, &snap); err != nil {
		t.Fatalf("-metrics file is not JSON: %v", err)
	}
	for _, key := range []string{"original.fabric.delivered", "modified.fabric.delivered"} {
		if snap.Counters[key] == 0 {
			t.Errorf("metrics snapshot missing counter %q", key)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(t1)), "\n")
	if len(lines) == 0 {
		t.Fatal("-trace file is empty")
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("-trace line 0 is not JSON: %v", err)
	}
	if _, ok := ev["kind"]; !ok {
		t.Errorf("trace event missing kind: %v", ev)
	}
}

// TestRecoveryExperimentGoldenDeterministic is the CLI acceptance
// check for the self-healing study: `itbsim -exp recovery` must emit
// byte-identical tables at -workers 1 and -workers 4 (detection and
// convergence latencies are simulation outputs, so parallel dispatch
// must not perturb them), and the table must match the committed
// golden. A deliberate protocol change regenerates it with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestRecoveryExperimentGolden
func TestRecoveryExperimentGoldenDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	runWith := func(workers string, extra ...string) []byte {
		t.Helper()
		args := append([]string{"-exp", "recovery", "-switches", "8", "-seed", "3", "-workers", workers}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim -exp recovery -workers %s: %v\n%s", workers, err, out)
		}
		return out
	}
	got1 := runWith("1")
	got4 := runWith("4")
	if !bytes.Equal(got1, got4) {
		t.Fatalf("-exp recovery output differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got1, got4)
	}

	path := filepath.Join("testdata", "recovery.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("-exp recovery drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got1, want)
	}

	// The CSV form must carry the same grid: one data row per table
	// row, with the documented header.
	csvOut := runWith("4", "-csv")
	lines := strings.Split(strings.TrimSpace(string(csvOut)), "\n")
	if len(lines) < 2 {
		t.Fatalf("-csv output has no data rows:\n%s", csvOut)
	}
	if !strings.HasPrefix(lines[0], "period_us,churn_events,") {
		t.Errorf("-csv header unexpected: %s", lines[0])
	}
}

// TestGossipRecoveryGoldenDeterministic pins the decentralized arm of
// the churn study: `itbsim -exp recovery -detector gossip` must emit
// byte-identical tables at -workers 1 and -workers 4 and match its own
// committed golden — while the monitor golden above stays untouched,
// proving -detector gossip changes nothing unless asked for.
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestGossipRecoveryGolden
func TestGossipRecoveryGoldenDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	runWith := func(workers string, extra ...string) []byte {
		t.Helper()
		args := append([]string{"-exp", "recovery", "-detector", "gossip",
			"-switches", "8", "-seed", "3", "-workers", workers}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim -exp recovery -detector gossip -workers %s: %v\n%s", workers, err, out)
		}
		return out
	}
	got1 := runWith("1")
	got4 := runWith("4")
	if !bytes.Equal(got1, got4) {
		t.Fatalf("gossip churn study differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got1, got4)
	}
	if !strings.Contains(string(got1), "gossip detector") {
		t.Errorf("gossip table missing its header:\n%s", got1)
	}

	path := filepath.Join("testdata", "recovery_gossip.golden")
	if os.Getenv("REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("gossip churn study drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got1, want)
	}

	// The CSV form must tag every row with the detector and carry the
	// probe-traffic counters the overhead analysis reads.
	csvOut := runWith("4", "-csv")
	lines := strings.Split(strings.TrimSpace(string(csvOut)), "\n")
	if len(lines) < 2 {
		t.Fatalf("-csv output has no data rows:\n%s", csvOut)
	}
	for _, col := range []string{"detector", "probes", "refutations"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("-csv header missing %q column: %s", col, lines[0])
		}
	}
	if !strings.Contains(lines[1], "gossip") {
		t.Errorf("-csv data row not tagged with the detector: %s", lines[1])
	}
}

// TestUnknownDetectorRejected locks the -detector validation: a name
// that matches no registered detector must exit 1 and list the valid
// kinds, mirroring the -exp and -engine error paths.
func TestUnknownDetectorRejected(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "recovery", "-detector", "swim").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("itbsim -detector swim: err=%v (want exit error)\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	text := string(out)
	if !strings.Contains(text, "swim") {
		t.Errorf("error does not name the bad detector:\n%s", text)
	}
	for _, kind := range []string{"monitor", "gossip"} {
		if !strings.Contains(text, kind) {
			t.Errorf("error does not list valid detector %q:\n%s", kind, text)
		}
	}
}

// TestWorkersFlagValidation locks the numeric argument checks: values
// the runner or a study cannot honour must be rejected up front with a
// usage message and a non-zero exit, not passed through.
func TestWorkersFlagValidation(t *testing.T) {
	bin := buildItbsim(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "load", "-workers", "0"}, "-workers 0 is invalid"},
		{[]string{"-exp", "load", "-workers", "-3"}, "-workers -3 is invalid"},
		{[]string{"-exp", "engines", "-hosts", "-3"}, "-hosts/-period/-churn/-campaigns must be >= 0"},
		{[]string{"-exp", "fig7", "-iters", "0"}, "-iters 0 is invalid"},
		{[]string{"-exp", "scaling", "-window", "0"}, "-window 0 is invalid"},
		{[]string{"-exp", "sensitivity", "-switches", "0"}, "-switches 0 is invalid"},
		{[]string{"-exp", "throughput", "-switches", "-2"}, "-switches -2 is invalid"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v exited 0; output:\n%s", c.args, out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: want exit code 1, got %v", c.args, err)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%v: message %q missing from output:\n%s", c.args, c.want, out)
		}
	}
}

// TestPprofFlagWritesProfile keeps -pprof honest: the file must exist
// and be non-empty after a run.
func TestPprofFlagWritesProfile(t *testing.T) {
	bin := buildItbsim(t)
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	out, err := exec.Command(bin, "-exp", "costs", "-pprof", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("itbsim -pprof: %v\n%s", err, out)
	}
	st, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if st.Size() == 0 {
		t.Error("profile file is empty")
	}
}
