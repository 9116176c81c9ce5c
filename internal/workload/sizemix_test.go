package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMixValidation(t *testing.T) {
	cases := []struct {
		name    string
		buckets []Bucket
		ok      bool
	}{
		{"empty", nil, false},
		{"valid pair", []Bucket{{64, 0.5}, {128, 0.5}}, true},
		{"sums low", []Bucket{{64, 0.5}, {128, 0.4}}, false},
		{"sums high", []Bucket{{64, 0.7}, {128, 0.5}}, false},
		{"within tolerance", []Bucket{{64, 0.5}, {128, 0.5 + 1e-12}}, true},
		{"zero weight", []Bucket{{64, 0}, {128, 1}}, false},
		{"negative weight", []Bucket{{64, -0.5}, {128, 1.5}}, false},
		{"NaN weight", []Bucket{{64, math.NaN()}, {128, 1}}, false},
		{"Inf weight", []Bucket{{64, math.Inf(1)}, {128, 1}}, false},
		{"bytes too small", []Bucket{{MinFlowBytes - 1, 1}}, false},
		{"bytes too large", []Bucket{{MaxFlowBytes + 1, 1}}, false},
		{"single full bucket", []Bucket{{MaxFlowBytes, 1}}, true},
	}
	for _, c := range cases {
		_, err := NewMix(c.name, c.buckets)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid mix accepted", c.name)
		}
	}
}

// Property: a valid mix's bucket weights sum to 1 (within tolerance)
// and its samples come only from its buckets, with the declared mean.
func TestMixWeightsAndSamplesProperty(t *testing.T) {
	f := func(seed int64, raw [4]uint16) bool {
		// Build a 4-bucket distribution from the fuzzed masses.
		var w [4]float64
		sum := 0.0
		for i, r := range raw {
			w[i] = float64(r) + 1
			sum += w[i]
		}
		buckets := []Bucket{}
		sizes := []int{64, 256, 1024, 8192}
		total := 0.0
		for i, s := range sizes {
			if i == len(sizes)-1 {
				buckets = append(buckets, Bucket{s, 1 - total})
				break
			}
			weight := w[i] / sum
			buckets = append(buckets, Bucket{s, weight})
			total += weight
		}
		m, err := NewMix("prop", buckets)
		if err != nil {
			return false
		}
		check := 0.0
		for _, b := range m.Buckets() {
			check += b.Weight
		}
		if math.Abs(check-1) > weightTolerance {
			return false
		}
		allowed := map[int]bool{64: true, 256: true, 1024: true, 8192: true}
		rng := rand.New(rand.NewSource(seed))
		empirical := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			s := m.Sample(rng)
			if !allowed[s] {
				return false
			}
			empirical += float64(s)
		}
		empirical /= n
		// 8192 at max weight dominates the variance; 15% is far
		// outside the statistical noise at n=20000.
		return math.Abs(empirical-m.MeanBytes()) < 0.15*m.MeanBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestWebSearchMix(t *testing.T) {
	m := WebSearch()
	if m.Name() != "websearch" {
		t.Errorf("name = %q", m.Name())
	}
	want := 0.0
	sum := 0.0
	for _, b := range m.Buckets() {
		want += b.Weight * float64(b.Bytes)
		sum += b.Weight
	}
	if math.Abs(sum-1) > weightTolerance {
		t.Errorf("weights sum to %v", sum)
	}
	if m.MeanBytes() != want {
		t.Errorf("mean = %v, want %v", m.MeanBytes(), want)
	}
	// Heavy tail: the mean sits far above the median bucket.
	if m.MeanBytes() < 500 || m.MeanBytes() > 2000 {
		t.Errorf("websearch mean %v outside the expected scale", m.MeanBytes())
	}
}

func TestFixedSize(t *testing.T) {
	m, err := FixedSize(512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if s := m.Sample(rng); s != 512 {
			t.Fatalf("sample = %d", s)
		}
	}
	if m.MeanBytes() != 512 {
		t.Errorf("mean = %v", m.MeanBytes())
	}
	if _, err := FixedSize(4); err == nil {
		t.Error("size below MinFlowBytes accepted")
	}
}

func TestNewSizeMix(t *testing.T) {
	cases := []struct {
		cfg  SizeMixConfig
		name string
		ok   bool
	}{
		{SizeMixConfig{Kind: "fixed", Bytes: 1024}, "fixed-1024", true},
		{SizeMixConfig{Kind: "websearch"}, "websearch", true},
		{SizeMixConfig{Kind: "zipf"}, "", false},
		{SizeMixConfig{Kind: "fixed", Bytes: 1}, "", false},
	}
	for _, c := range cases {
		m, err := NewSizeMix(c.cfg)
		if c.ok && (err != nil || m.Name() != c.name) {
			t.Errorf("%+v: got %v, %v", c.cfg, m, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: accepted", c.cfg)
		}
	}
}

// Property: sampling is a pure function of the caller's RNG stream.
func TestMixDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := WebSearch()
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if m.Sample(a) != m.Sample(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
