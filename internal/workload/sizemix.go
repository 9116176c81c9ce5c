package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// MinFlowBytes is the smallest flow the drivers can measure: an
// open-loop cell stamps the flow into its leading payload bytes (the
// core cell its index in 8, the benchmark's cell its injection time
// and id in 16), so every mix must stay at or above 16 bytes.
const MinFlowBytes = 16

// MaxFlowBytes bounds a single flow. GM segments larger messages at
// the MTU, but a multi-megabyte flow would dominate a microsecond
// measurement window; the mixes model the datacenter distributions
// scaled to Myrinet message sizes.
const MaxFlowBytes = 1 << 20

// Bucket is one discrete mass point of a Mix.
type Bucket struct {
	Bytes  int
	Weight float64
}

// weightTolerance is how far the bucket weights of a Mix may stray
// from summing to exactly 1.
const weightTolerance = 1e-9

// Mix draws per-flow payload sizes from a discrete weighted
// distribution. Construction validates that the weights form a
// probability distribution — they must sum to 1 within
// weightTolerance; nothing is silently renormalised. Sampling is pure:
// the caller owns the randomness, so one seeded stream reproduces one
// schedule.
type Mix struct {
	name    string
	buckets []Bucket
	cum     []float64
	mean    float64
}

// NewMix validates and builds a discrete mix.
func NewMix(name string, buckets []Bucket) (*Mix, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("workload: size mix %q has no buckets", name)
	}
	sum, mean := 0.0, 0.0
	for i, b := range buckets {
		if b.Bytes < MinFlowBytes || b.Bytes > MaxFlowBytes {
			return nil, fmt.Errorf("workload: size mix %q bucket %d: %d bytes outside [%d, %d]",
				name, i, b.Bytes, MinFlowBytes, MaxFlowBytes)
		}
		if !(b.Weight > 0) || math.IsInf(b.Weight, 0) {
			return nil, fmt.Errorf("workload: size mix %q bucket %d: weight %v must be positive and finite",
				name, i, b.Weight)
		}
		sum += b.Weight
		mean += b.Weight * float64(b.Bytes)
	}
	if math.Abs(sum-1) > weightTolerance {
		return nil, fmt.Errorf("workload: size mix %q weights sum to %v, want 1", name, sum)
	}
	m := &Mix{name: name, buckets: append([]Bucket(nil), buckets...), mean: mean}
	acc := 0.0
	for _, b := range m.buckets {
		acc += b.Weight
		m.cum = append(m.cum, acc)
	}
	// Guard the final boundary against rounding so Sample can never
	// fall off the end.
	m.cum[len(m.cum)-1] = 1
	return m, nil
}

// Buckets returns a copy of the mass points.
func (m *Mix) Buckets() []Bucket { return append([]Bucket(nil), m.buckets...) }

// Sample draws one size by inverse transform over the bucket CDF.
func (m *Mix) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.buckets[i].Bytes
		}
	}
	return m.buckets[len(m.buckets)-1].Bytes
}

// MeanBytes is the exact mix mean.
func (m *Mix) MeanBytes() float64 { return m.mean }

// Name identifies the mix.
func (m *Mix) Name() string { return m.name }

// FixedSize is the degenerate mix: every flow is exactly n bytes.
func FixedSize(n int) (*Mix, error) {
	return NewMix(fmt.Sprintf("fixed-%d", n), []Bucket{{Bytes: n, Weight: 1}})
}

// WebSearch is the heavy-tailed web-search-style flow mix (the DCTCP
// workload FatPaths evaluates under), scaled to Myrinet message
// sizes: most flows are short queries, a thin tail of large responses
// carries most of the bytes.
func WebSearch() *Mix {
	m, err := NewMix("websearch", []Bucket{
		{Bytes: 64, Weight: 0.15},
		{Bytes: 128, Weight: 0.20},
		{Bytes: 256, Weight: 0.20},
		{Bytes: 512, Weight: 0.15},
		{Bytes: 1024, Weight: 0.12},
		{Bytes: 2048, Weight: 0.08},
		{Bytes: 4096, Weight: 0.06},
		{Bytes: 8192, Weight: 0.03},
		{Bytes: 16384, Weight: 0.01},
	})
	if err != nil {
		panic(err) // static table; unreachable
	}
	return m
}

// SizeMixConfig is the serialisable (CLI/driver) form of a mix
// choice.
type SizeMixConfig struct {
	// Kind is "fixed" or "websearch".
	Kind string
	// Bytes is the fixed size (Kind "fixed").
	Bytes int
}

// NewSizeMix resolves a config into a mix.
func NewSizeMix(cfg SizeMixConfig) (*Mix, error) {
	switch cfg.Kind {
	case "fixed":
		return FixedSize(cfg.Bytes)
	case "websearch":
		return WebSearch(), nil
	default:
		return nil, fmt.Errorf("workload: unknown size mix %q (valid: fixed websearch)", cfg.Kind)
	}
}
