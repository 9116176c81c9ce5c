package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestArrivalKindNames(t *testing.T) {
	if s := Poisson.String(); s != "poisson" {
		t.Errorf("Poisson String = %q", s)
	}
	if s := ArrivalKind(99).String(); s != "ArrivalKind(99)" {
		t.Errorf("stray kind String = %q", s)
	}
}

func TestArrivalConfigValidate(t *testing.T) {
	if err := (ArrivalConfig{Kind: Poisson}).Validate(); err != nil {
		t.Errorf("poisson: unexpected error %v", err)
	}
	if err := (ArrivalConfig{Kind: ArrivalKind(7)}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestNewArrivalErrors(t *testing.T) {
	if _, err := NewArrival(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero mean accepted")
	}
	if _, err := NewArrival(-units.Microsecond, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative mean accepted")
	}
}

// empiricalMean draws n gaps and averages them.
func empiricalMean(t *testing.T, mean units.Time, seed int64, n int) float64 {
	t.Helper()
	ap, err := NewArrival(mean, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		g := ap.Next()
		if g < 1 {
			t.Fatalf("gap %v below the quantisation floor", g)
		}
		sum += float64(g)
	}
	return sum / float64(n)
}

// Property: the empirical arrival rate matches the configured offered
// load — the long-run mean gap converges to the constructed mean.
func TestArrivalMeanMatchesLoadProperty(t *testing.T) {
	f := func(seed int64, meanRaw uint32) bool {
		// Mean gaps from 10ns to ~42ms, away from the 1ps floor so
		// quantisation cannot bias the average upward.
		mean := units.Time(meanRaw)*10*units.Nanosecond + 10*units.Nanosecond
		got := empiricalMean(t, mean, seed, 60000)
		return math.Abs(got-float64(mean)) < 0.1*float64(mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: the same seed reproduces the same gap stream; the process
// is a pure function of (mean, seed).
func TestArrivalDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, err := NewArrival(50*units.Nanosecond, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		b, err := NewArrival(50*units.Nanosecond, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuantise(t *testing.T) {
	if q := quantise(0.2); q != 1 {
		t.Errorf("quantise(0.2) = %v", q)
	}
	if q := quantise(1e30); q != units.Time(math.MaxInt64/2) {
		t.Errorf("quantise(1e30) = %v, want the overflow clamp", q)
	}
	if q := quantise(1500); q != 1500 {
		t.Errorf("quantise(1500) = %v", q)
	}
}

func TestMeanGap(t *testing.T) {
	link := units.Bandwidth(1280 * 1000 * 1000 / 8) // bytes/sec scale irrelevant; positive
	if _, err := MeanGap(0, 512, link); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := MeanGap(math.NaN(), 512, link); err == nil {
		t.Error("NaN load accepted")
	}
	if _, err := MeanGap(math.Inf(1), 512, link); err == nil {
		t.Error("Inf load accepted")
	}
	if _, err := MeanGap(0.5, 0, link); err == nil {
		t.Error("zero mean size accepted")
	}
	if _, err := MeanGap(0.5, math.NaN(), link); err == nil {
		t.Error("NaN mean size accepted")
	}
	// Halving the load doubles the gap.
	g1, err := MeanGap(0.8, 1024, link)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := MeanGap(0.4, 1024, link)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(g2) / float64(g1)
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("gap ratio = %v, want 2", ratio)
	}
	// A fixed message size at full load is exactly its transfer time:
	// 1600 bytes on a 160 MB/s link inject one message every 10us.
	for _, tc := range []struct {
		load float64
		want units.Time
	}{{1, 10 * units.Microsecond}, {0.5, 20 * units.Microsecond}} {
		g, err := MeanGap(tc.load, 1600, 160*units.MBs)
		if err != nil {
			t.Fatal(err)
		}
		if g != tc.want {
			t.Errorf("MeanGap(%v, 1600, 160MB/s) = %v, want %v", tc.load, g, tc.want)
		}
	}
}
