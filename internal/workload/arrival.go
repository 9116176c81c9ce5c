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
	// Bursty is a two-state Markov-modulated Poisson process: the
	// source alternates between a high-rate ON state and a low-rate
	// OFF state with exponential holding times, producing the
	// clustered arrivals of real datacenter traffic while keeping the
	// configured long-run rate.
	Bursty
)

// String names the kind.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ArrivalKindByName resolves a kind from its CLI name.
func ArrivalKindByName(name string) (ArrivalKind, error) {
	switch name {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival kind %q (valid: poisson bursty)", name)
	}
}

// Default burst shape: the ON state runs eight times hotter than OFF,
// is active a quarter of the time, and holds long enough for sixteen
// arrivals on average — long bursts, clearly separated.
const (
	defaultBurstRatio    = 8.0
	defaultOnFraction    = 0.25
	defaultBurstArrivals = 16.0
)

// ArrivalConfig parameterises an arrival process independently of its
// rate; the rate comes from the offered load at construction time.
// The burst fields apply to Bursty only; zero values select the
// defaults above, so ArrivalConfig{Kind: Bursty} is ready to use.
type ArrivalConfig struct {
	Kind ArrivalKind
	// BurstRatio is the ON/OFF intensity ratio (>= 1). 1 degenerates
	// to Poisson.
	BurstRatio float64
	// OnFraction is the long-run fraction of time spent in the ON
	// state, in (0, 1).
	OnFraction float64
	// BurstArrivals is the mean number of arrivals per ON period
	// (>= 1); it sets the burst-length scale.
	BurstArrivals float64
}

// withDefaults fills zero burst fields.
func (c ArrivalConfig) withDefaults() ArrivalConfig {
	if c.BurstRatio == 0 {
		c.BurstRatio = defaultBurstRatio
	}
	if c.OnFraction == 0 {
		c.OnFraction = defaultOnFraction
	}
	if c.BurstArrivals == 0 {
		c.BurstArrivals = defaultBurstArrivals
	}
	return c
}

// Validate rejects burst shapes outside the model (including NaN,
// which would otherwise slip through naive range checks).
func (c ArrivalConfig) Validate() error {
	c = c.withDefaults()
	switch c.Kind {
	case Poisson:
		return nil
	case Bursty:
		if !(c.BurstRatio >= 1) || math.IsInf(c.BurstRatio, 0) {
			return fmt.Errorf("workload: bursty arrival needs BurstRatio >= 1 and finite, got %v", c.BurstRatio)
		}
		if !(c.OnFraction > 0 && c.OnFraction < 1) {
			return fmt.Errorf("workload: bursty arrival needs OnFraction in (0,1), got %v", c.OnFraction)
		}
		if !(c.BurstArrivals >= 1) || math.IsInf(c.BurstArrivals, 0) {
			return fmt.Errorf("workload: bursty arrival needs BurstArrivals >= 1 and finite, got %v", c.BurstArrivals)
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival kind %d", int(c.Kind))
	}
}

// ArrivalProcess produces the interarrival gaps of one open-loop
// source. Implementations are deterministic per stream and quantise
// gaps to the engine resolution (>= 1).
type ArrivalProcess interface {
	// Next returns the gap to the next arrival.
	Next() units.Time
	// Mean returns the configured long-run mean gap.
	Mean() units.Time
	// Name identifies the process family.
	Name() string
}

// NewArrival builds an arrival process with the given long-run mean
// interarrival gap, drawing from rng. A source with a private stream
// passes rand.New(rand.NewSource(seed)); the closed-loop studies pass
// the stream their destination chooser draws from.
func NewArrival(cfg ArrivalConfig, mean units.Time, rng *rand.Rand) (ArrivalProcess, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("workload: arrival process needs a positive mean gap, got %v", mean)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case Poisson:
		return &poisson{mean: mean, rng: rng}, nil
	default: // Bursty; Validate rejected everything else
		// Long-run rate lambda = 1/mean splits across the states so
		// that fOn*lambdaOn + (1-fOn)*lambdaOff = lambda with
		// lambdaOn/lambdaOff = r.
		r, fOn := cfg.BurstRatio, cfg.OnFraction
		lambda := 1 / float64(mean)
		lambdaOn := lambda * r / (fOn*r + 1 - fOn)
		lambdaOff := lambdaOn / r
		onHold := cfg.BurstArrivals / lambdaOn
		offHold := onHold * (1 - fOn) / fOn
		b := &bursty{
			mean:    mean,
			gapMean: [2]float64{1 / lambdaOn, 1 / lambdaOff},
			hold:    [2]float64{onHold, offHold},
			rng:     rng,
		}
		// Start in the OFF state with a full holding period, so the
		// stream opens quietly rather than mid-burst.
		b.state = 1
		b.remain = b.draw(b.hold[1])
		return b, nil
	}
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

type poisson struct {
	mean units.Time
	rng  *rand.Rand
}

func (p *poisson) Next() units.Time {
	return quantise(p.rng.ExpFloat64() * float64(p.mean))
}

func (p *poisson) Mean() units.Time { return p.mean }
func (p *poisson) Name() string     { return "poisson" }

// bursty is the two-state MMPP. state 0 is ON, 1 is OFF.
type bursty struct {
	mean    units.Time
	gapMean [2]float64 // mean interarrival gap per state
	hold    [2]float64 // mean holding time per state
	state   int
	remain  float64 // time left in the current state
	rng     *rand.Rand
}

func (b *bursty) draw(mean float64) float64 { return b.rng.ExpFloat64() * mean }

func (b *bursty) Next() units.Time {
	var gap float64
	for {
		d := b.draw(b.gapMean[b.state])
		if d <= b.remain {
			// The arrival lands inside the current state.
			b.remain -= d
			return quantise(gap + d)
		}
		// The state expires first: advance to the boundary, flip, and
		// redraw in the new state (the exponential's memorylessness
		// makes discarding the old draw exact, not an approximation).
		gap += b.remain
		b.state = 1 - b.state
		b.remain = b.draw(b.hold[b.state])
	}
}

func (b *bursty) Mean() units.Time { return b.mean }
func (b *bursty) Name() string     { return "bursty" }

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
