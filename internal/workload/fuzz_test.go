package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// FuzzArrivalProcess hammers the arrival constructors with arbitrary
// shapes: every accepted configuration must produce quantised,
// non-negative, deterministic gaps, and every rejected one must be
// rejected consistently (Validate and NewArrival agree).
func FuzzArrivalProcess(f *testing.F) {
	f.Add(int64(1), uint8(0), 8.0, 0.25, 16.0, int64(units.Microsecond))
	f.Add(int64(2), uint8(1), 1.0, 0.5, 1.0, int64(50*units.Nanosecond))
	f.Add(int64(3), uint8(1), math.NaN(), math.NaN(), math.NaN(), int64(1))
	f.Add(int64(4), uint8(1), math.Inf(1), 0.999, 1e18, int64(math.MaxInt64))
	f.Add(int64(5), uint8(7), 2.0, 0.5, 4.0, int64(-1))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, ratio, onFrac, burstArr float64, meanRaw int64) {
		cfg := ArrivalConfig{
			Kind:          ArrivalKind(kind % 3), // includes one invalid kind
			BurstRatio:    ratio,
			OnFraction:    onFrac,
			BurstArrivals: burstArr,
		}
		mean := units.Time(meanRaw)
		ap, err := NewArrival(cfg, mean, rand.New(rand.NewSource(seed)))
		if err != nil {
			return
		}
		if mean <= 0 {
			t.Fatalf("non-positive mean %v accepted", mean)
		}
		if cfg.Validate() != nil {
			t.Fatalf("NewArrival accepted a config Validate rejects: %+v", cfg)
		}
		ref, err := NewArrival(cfg, mean, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("second construction failed: %v", err)
		}
		for i := 0; i < 64; i++ {
			g := ap.Next()
			if g < 1 {
				t.Fatalf("gap %v below the 1ps floor", g)
			}
			if r := ref.Next(); r != g {
				t.Fatalf("gap stream not deterministic: %v != %v at %d", g, r, i)
			}
		}
		if ap.Mean() != mean {
			t.Fatalf("Mean() = %v, want %v", ap.Mean(), mean)
		}
	})
}

// FuzzFlowSizeMix hammers the mix constructors: any accepted mix must
// sample only sizes inside [MinFlowBytes, MaxFlowBytes] and report a
// mean consistent with its mass points.
func FuzzFlowSizeMix(f *testing.F) {
	f.Add(int64(1), 64, 128, 1024, 0.5, 0.3, 0.2)
	f.Add(int64(2), 16, 16, 16, 1.0, 0.0, 0.0)
	f.Add(int64(3), -5, 1<<21, 0, math.NaN(), math.Inf(1), -1.0)
	f.Add(int64(4), 100, 200, 300, 0.3333333333, 0.3333333333, 0.3333333334)
	f.Fuzz(func(t *testing.T, seed int64, b1, b2, b3 int, w1, w2, w3 float64) {
		m, err := NewMix("fuzz", []Bucket{{b1, w1}, {b2, w2}, {b3, w3}})
		if err != nil {
			return
		}
		sum, lo, hi := 0.0, math.MaxFloat64, 0.0
		for _, b := range m.Buckets() {
			sum += b.Weight
			lo = math.Min(lo, float64(b.Bytes))
			hi = math.Max(hi, float64(b.Bytes))
		}
		if math.Abs(sum-1) > weightTolerance {
			t.Fatalf("accepted weights sum to %v", sum)
		}
		if mean := m.MeanBytes(); mean < lo || mean > hi {
			t.Fatalf("mean %v outside bucket range [%v, %v]", mean, lo, hi)
		}
		allowed := map[int]bool{b1: true, b2: true, b3: true}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 256; i++ {
			s := m.Sample(rng)
			if s < MinFlowBytes || s > MaxFlowBytes || !allowed[s] {
				t.Fatalf("sample %d outside the declared buckets", s)
			}
		}
	})
}
