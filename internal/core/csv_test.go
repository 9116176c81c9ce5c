package core

import (
	"encoding/csv"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestFig7CSV(t *testing.T) {
	res, err := RunFig7(Fig7Config{Sizes: []int{8, 64}, Iterations: 5, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 3 { // header + 2 rows
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0][0] != "size_bytes" {
		t.Errorf("header = %v", recs[0])
	}
	// Numeric columns parse and overhead = modified - original.
	for _, rec := range recs[1:] {
		orig, err1 := strconv.ParseFloat(rec[1], 64)
		mod, err2 := strconv.ParseFloat(rec[2], 64)
		over, err3 := strconv.ParseFloat(rec[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("non-numeric row %v", rec)
		}
		if diff := mod - orig - over; diff > 0.01 || diff < -0.01 {
			t.Errorf("overhead inconsistent in %v", rec)
		}
	}
}

func TestFig8CSV(t *testing.T) {
	res, err := RunFig8(Fig8Config{Sizes: []int{64}, Iterations: 5, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 2 || recs[0][2] != "ud_itb_ns" {
		t.Errorf("records = %v", recs)
	}
}

// failingWriter errors on every Write. csv.Writer buffers through
// bufio, so for small outputs the write error only surfaces at Flush —
// each WriteCSV must end with `cw.Flush(); return cw.Error()` or the
// caller sees a nil error and a truncated (empty) file.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("disk full")
}

func TestWriteCSVPropagatesFlushError(t *testing.T) {
	cases := map[string]func(io.Writer) error{
		"fig7":     Fig7Result{Rows: []Fig7Row{{Size: 8}}}.WriteCSV,
		"fig8":     Fig8Result{Rows: []Fig8Row{{Size: 8}}}.WriteCSV,
		"itbcount": ITBCountResult{Rows: []ITBCountRow{{ITBs: 1}}}.WriteCSV,
	}
	for name, write := range cases {
		if err := write(failingWriter{}); err == nil {
			t.Errorf("%s WriteCSV swallowed the writer error", name)
		}
	}
}

func TestITBCountCSV(t *testing.T) {
	res, err := RunITBCount(2, 64, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, sb.String())
	if len(recs) != 4 { // header + 3 rows (0,1,2 ITBs)
		t.Errorf("records = %d", len(recs))
	}
}
