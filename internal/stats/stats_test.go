package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.CI95() != 0 {
		t.Error("empty summary should be all zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Known dataset: population stddev 2, sample stddev = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev()-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median())
	}
}

func TestPercentile(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", got)
	}
	var one Summary
	one.Add(42)
	if one.Percentile(73) != 42 {
		t.Error("single-sample percentile")
	}
}

// TestPercentileClampsOutOfRange is the regression test for the sweep
// killer: Percentile used to panic on p outside [0, 100], so one bad
// report call took down an entire experiment. Out-of-range p now
// clamps to the nearest extreme and NaN degrades to the minimum.
func TestPercentileClampsOutOfRange(t *testing.T) {
	var s Summary
	for _, v := range []float64{10, 20, 30} {
		s.Add(v)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{-5, 10},
		{-0.0001, 10},
		{100.0001, 30},
		{150, 30},
		{math.Inf(-1), 10},
		{math.Inf(1), 30},
		{math.NaN(), 10},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAddAfterSortedQuery(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Add(1)
	if s.Min() != 1 {
		t.Fatal("min")
	}
	s.Add(0.5) // must re-sort
	if s.Min() != 0.5 {
		t.Error("Add after a sorted query not reflected")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	mk := func(n int) float64 {
		var s Summary
		for i := 0; i < n; i++ {
			s.Add(float64(i % 10))
		}
		return s.CI95()
	}
	if !(mk(1000) < mk(100) && mk(100) < mk(20)) {
		t.Error("CI95 does not shrink with sample size")
	}
}

func TestString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestSaturation(t *testing.T) {
	// Accepted tracks offered until 0.6, then flattens at 0.62.
	pts := []Point{
		{0.1, 0.1}, {0.2, 0.2}, {0.4, 0.4}, {0.6, 0.59}, {0.8, 0.62}, {1.0, 0.61},
	}
	sat := Saturation(pts, 0.05)
	if sat.X != 0.6 {
		t.Errorf("saturation at X=%v, want 0.6", sat.X)
	}
	if got := Saturation(nil, 0.05); got != (Point{}) {
		t.Error("empty saturation")
	}
	// First point already diverged.
	div := []Point{{1, 0.1}, {2, 0.05}}
	if got := Saturation(div, 0.05); got != div[0] {
		t.Errorf("diverged-first saturation = %v", got)
	}
}

func TestWriteHistogram(t *testing.T) {
	var s Summary
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10))
	}
	var sb strings.Builder
	if err := s.WriteHistogram(&sb, 5, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Uniform data: every bucket holds 20 observations, full bars.
	for _, l := range lines {
		if !strings.Contains(l, "####") || !strings.HasSuffix(l, "20") {
			t.Errorf("unexpected bucket line %q", l)
		}
	}
	// Empty summary and degenerate configs.
	var empty Summary
	sb.Reset()
	if err := empty.WriteHistogram(&sb, 3, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty histogram output")
	}
	if err := s.WriteHistogram(&sb, 0, 10); err == nil {
		t.Error("zero buckets accepted")
	}
	// Single-valued data lands in one bucket.
	var one Summary
	one.Add(5)
	one.Add(5)
	sb.Reset()
	if err := one.WriteHistogram(&sb, 4, 10); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean lies within [Min, Max]; percentiles are monotone.
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) {
				f64 = 0
			}
			s.Add(f64)
		}
		if s.Mean() < s.Min()-1e-9 || s.Mean() > s.Max()+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
