package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/topology"
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

// FuzzPlan hammers Plan with every scenario (and invalid ones), raw
// patterns, hot fractions, loads, horizons, fan-ins, arrival kinds and
// size mixes. Plan must never panic: it either fails or returns flows
// that start inside (0, Horizon), never send to their own source,
// take their sizes from the mix, and number at most maxPlanFlows.
// Inputs that expect more than maxFuzzFlows flows are skipped to keep
// each run cheap; TestPlanFlowCap covers the bound itself.
func FuzzPlan(f *testing.F) {
	const maxFuzzFlows = 1 << 16
	fat, err := topology.FatTree(topology.DefaultFatTreeConfig(16))
	if err != nil {
		f.Fatal(err)
	}
	irr, err := topology.Generate(topology.DefaultGenConfig(3, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), false, uint8(4), int8(1), 0.7, 0.8, int64(units.Millisecond), 0, uint8(0), uint8(0), 512, 0)
	f.Add(int64(2), true, uint8(4), int8(3), 0.0, 0.2, int64(units.Millisecond), 0, uint8(1), uint8(1), 64, 4096)
	f.Add(int64(3), false, uint8(4), int8(1), math.NaN(), 0.5, int64(units.Millisecond), 0, uint8(0), uint8(2), 0, 0)
	f.Add(int64(4), false, uint8(4), int8(2), 0.5, math.NaN(), int64(units.Millisecond), 0, uint8(0), uint8(0), 16, 0)
	f.Add(int64(5), false, uint8(0), int8(0), 0.5, math.Inf(1), int64(units.Millisecond), 0, uint8(0), uint8(0), 16, 0)
	f.Add(int64(6), true, uint8(4), int8(-3), 0.5, 0.5, int64(units.Millisecond), 0, uint8(0), uint8(0), 16, 0)
	f.Add(int64(7), false, uint8(4), int8(9), 0.5, 0.5, int64(units.Millisecond), 0, uint8(0), uint8(0), 16, 0)
	f.Add(int64(8), false, uint8(1), int8(0), 0.0, 3.0, int64(math.MaxInt64), 5, uint8(1), uint8(2), 0, 0)
	f.Add(int64(9), true, uint8(2), int8(0), 0.0, 1e-12, int64(math.MaxInt64), -1, uint8(2), uint8(0), 1<<20, 0)
	f.Add(int64(12), false, uint8(4), int8(0), 0.0, 5e-9, int64(math.MaxInt64), 0, uint8(0), uint8(0), 1<<20, 0)
	f.Add(int64(10), false, uint8(3), int8(0), 0.0, 1e6, int64(units.Microsecond), 0, uint8(0), uint8(1), 16, 16)
	f.Add(int64(11), false, uint8(9), int8(0), 0.0, 0.5, int64(-1), 0, uint8(0), uint8(0), 16, 0)
	f.Fuzz(func(t *testing.T, seed int64, irregular bool, scenario uint8, pattern int8, hot, load float64,
		horizon int64, fanin int, arrival, sizeKind uint8, a, b int) {
		topo := fat
		if irregular {
			topo = irr
		}
		mix, err := NewSizeMix(SizeMixConfig{Kind: []string{"fixed", "uniform", "websearch", "none"}[sizeKind%4], Bytes: a, Min: a, Max: b})
		if err != nil {
			return
		}
		if mean, err := MeanGap(load, mix.MeanBytes(), 160e6); err == nil &&
			float64(len(topo.Hosts()))*float64(horizon)/float64(mean) > maxFuzzFlows {
			return
		}
		cfg := PlanConfig{
			Scenario:      Scenario(scenario % 6), // includes one invalid scenario
			Load:          load,
			Arrival:       ArrivalConfig{Kind: ArrivalKind(arrival % 3)},
			Sizes:         mix,
			Seed:          seed,
			Horizon:       units.Time(horizon),
			LinkBandwidth: units.Bandwidth(160e6),
			Fanin:         fanin,
			Pattern:       Pattern(pattern),
			HotFraction:   hot,
		}
		flows, err := Plan(topo, cfg)
		if err != nil {
			return
		}
		if len(flows) > maxPlanFlows {
			t.Fatalf("%d flows exceed the bound %d", len(flows), maxPlanFlows)
		}
		for i, fl := range flows {
			if !(fl.Start > 0 && fl.Start < cfg.Horizon) {
				t.Fatalf("flow %d starts at %v, outside (0, %v)", i, fl.Start, cfg.Horizon)
			}
			if fl.Src == fl.Dst {
				t.Fatalf("flow %d sends to its own source %v", i, fl.Src)
			}
			if !inMix(mix, fl.Bytes) {
				t.Fatalf("flow %d size %d is not in %s", i, fl.Bytes, mix.Name())
			}
		}
	})
}

// inMix reports whether the mix can draw size.
func inMix(m SizeMix, size int) bool {
	switch m := m.(type) {
	case *Mix:
		for _, b := range m.buckets {
			if b.Bytes == size {
				return true
			}
		}
		return false
	case *UniformRange:
		return size >= m.min && size <= m.max
	}
	return false
}
