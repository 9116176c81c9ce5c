package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVCStudyGoldenDeterministic is the CLI acceptance check for the
// virtual-channel ablation: `itbsim -exp vc` must emit byte-identical
// tables at -workers 1 and -workers 4 (cells dispatch through the
// parallel runner and merge in grid order), cover every arm of the
// three-way itb / vc / itb+vc ablation at lane counts 1, 2 and 4, and
// match the committed golden. A deliberate model change regenerates it
// with:
//
//	REGEN_GOLDEN=1 go test ./cmd/itbsim/ -run TestVCStudyGolden
func TestVCStudyGoldenDeterministic(t *testing.T) {
	bin := buildItbsim(t)
	runWith := func(workers string) []byte {
		t.Helper()
		out, err := exec.Command(bin, "-exp", "vc", "-seed", "3",
			"-workers", workers).CombinedOutput()
		if err != nil {
			t.Fatalf("itbsim -exp vc -workers %s: %v\n%s", workers, err, out)
		}
		return out
	}
	got1 := runWith("1")
	got4 := runWith("4")
	if !bytes.Equal(got1, got4) {
		t.Fatalf("-exp vc output differs between -workers 1 and -workers 4\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", got1, got4)
	}
	for _, token := range []string{"fattree-16", "dragonfly-72", "itb+vc"} {
		if !bytes.Contains(got1, []byte(token)) {
			t.Errorf("study does not cover %q:\n%s", token, got1)
		}
	}
	// The itb arm never routes off lane 0, so its rows must be
	// byte-identical across lane counts: spare fabric lanes are inert.
	itbRows := map[string][]string{}
	for _, line := range strings.Split(string(got1), "\n") {
		f := strings.Fields(line)
		if len(f) != 11 || f[1] != "itb" {
			continue
		}
		key := f[0]
		itbRows[key] = append(itbRows[key], strings.Join(append(f[:2], f[3:]...), " "))
	}
	for preset, rows := range itbRows {
		if len(rows) != 3 {
			t.Errorf("preset %s: want 3 itb rows (lanes 1,2,4), got %d", preset, len(rows))
			continue
		}
		for _, r := range rows[1:] {
			if r != rows[0] {
				t.Errorf("preset %s: itb arm rows differ across lane counts:\n%s\n%s", preset, rows[0], r)
			}
		}
	}

	path := filepath.Join("testdata", "vc.golden")
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
		t.Errorf("-exp vc drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got1, want)
	}
}

// TestVCStudyCSV locks the CSV form of the ablation table.
func TestVCStudyCSV(t *testing.T) {
	bin := buildItbsim(t)
	out, err := exec.Command(bin, "-exp", "vc", "-seed", "3", "-csv").CombinedOutput()
	if err != nil {
		t.Fatalf("itbsim -exp vc -csv: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if !strings.HasPrefix(lines[0], "preset,arm,lanes,hosts,offered,delivered,") {
		t.Errorf("-csv header unexpected: %s", lines[0])
	}
	// 2 presets x 3 arms x 3 lane counts.
	if got := len(lines) - 1; got != 18 {
		t.Errorf("csv data rows = %d, want 18:\n%s", got, out)
	}
}
