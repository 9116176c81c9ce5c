package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// ArrivalKind selects the arrival-process family of an open-loop
// source.
type ArrivalKind int

const (
	// Poisson draws independent exponential interarrival gaps — the
	// memoryless baseline of every open-loop study.
	Poisson ArrivalKind = iota
)

// String names the kind.
func (k ArrivalKind) String() string {
	if k == Poisson {
		return "poisson"
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(k))
}

// ArrivalConfig parameterises an arrival process independently of its
// rate; the rate comes from the offered load at construction time.
type ArrivalConfig struct {
	Kind ArrivalKind
}

// Validate rejects an unknown arrival kind.
func (c ArrivalConfig) Validate() error {
	if c.Kind != Poisson {
		return fmt.Errorf("workload: unknown arrival kind %d", int(c.Kind))
	}
	return nil
}

// NewArrival builds a Poisson arrival process with the given long-run
// mean interarrival gap, drawing from rng. A source with a private
// stream passes rand.New(rand.NewSource(seed)); ScenarioPattern passes
// the stream its destination chooser draws from.
func NewArrival(mean units.Time, rng *rand.Rand) (*PoissonGaps, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("workload: arrival process needs a positive mean gap, got %v", mean)
	}
	return &PoissonGaps{mean: mean, rng: rng}, nil
}

// quantise clamps a drawn gap to the simulator's 1-picosecond floor.
func quantise(g float64) units.Time {
	if g < 1 {
		return 1
	}
	if g > math.MaxInt64/2 {
		// An absurd draw from a heavy tail must not overflow Time.
		return units.Time(math.MaxInt64 / 2)
	}
	return units.Time(g)
}

// PoissonGaps produces the interarrival gaps of one open-loop
// source: independent exponential draws from its stream, quantised to
// the engine resolution (>= 1).
type PoissonGaps struct {
	mean units.Time
	rng  *rand.Rand
}

// Next returns the gap to the next arrival.
func (p *PoissonGaps) Next() units.Time {
	return quantise(p.rng.ExpFloat64() * float64(p.mean))
}

// MeanGap converts an offered load (fraction of a sender's link
// bandwidth) and a mean flow size into the mean interarrival gap of
// that sender's arrival process. A fixed message size is the mean of
// its own one-point mix; a flow-size mix may have a fractional mean.
func MeanGap(load, meanBytes float64, link units.Bandwidth) (units.Time, error) {
	if err := CheckLoad(load); err != nil {
		return 0, err
	}
	if !(meanBytes > 0) || math.IsInf(meanBytes, 0) {
		return 0, fmt.Errorf("workload: mean flow size must be positive and finite, got %v", meanBytes)
	}
	gap := float64(units.ByteTime(link)) * meanBytes / load
	if gap < 1 {
		gap = 1
	}
	return units.Time(gap), nil
}

// CheckLoad rejects an offered load MeanGap cannot convert: zero,
// negative, NaN or infinite. Studies call it before building any
// cluster.
func CheckLoad(load float64) error {
	if !(load > 0) || math.IsInf(load, 0) {
		return fmt.Errorf("workload: offered load must be positive and finite, got %v", load)
	}
	return nil
}
