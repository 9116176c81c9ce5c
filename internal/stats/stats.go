// Package stats provides the small statistical toolkit the experiment
// harness uses: streaming summaries, percentiles, confidence
// intervals, and saturation detection for throughput sweeps.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary accumulates observations and answers summary queries.
type Summary struct {
	vals   []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// N returns the observation count.
func (s *Summary) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for no data).
func (s *Summary) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for no data).
func (s *Summary) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation (0 for no data).
func (s *Summary) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Percentile returns the p-th percentile using linear interpolation
// between order statistics. p is clamped to [0, 100] (a NaN clamps to
// 0): one out-of-range report call must degrade to the nearest extreme
// instead of panicking an entire sweep.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	} else if p > 100 {
		p = 100
	}
	s.ensureSorted()
	if len(s.vals) == 1 {
		return s.vals[0]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// CI95 returns the half-width of the 95% confidence interval of the
// mean under a normal approximation.
func (s *Summary) CI95() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(n))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// String renders "mean ± ci95 (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Values returns a copy of the observations (sorted if a sorted query
// ran since the last Add).
func (s *Summary) Values() []float64 {
	return append([]float64(nil), s.vals...)
}

// Scaled returns a new summary with every observation multiplied by
// k — unit conversion for display.
func (s *Summary) Scaled(k float64) *Summary {
	out := &Summary{}
	for _, v := range s.vals {
		out.Add(v * k)
	}
	return out
}

// WriteHistogram renders the observations as an ASCII histogram with
// the given number of equal-width buckets; bars scale to width
// characters. Useful for latency distributions in CLI output.
func (s *Summary) WriteHistogram(w io.Writer, buckets, width int) error {
	if buckets <= 0 || width <= 0 {
		return fmt.Errorf("stats: histogram needs positive buckets and width")
	}
	if len(s.vals) == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	lo, hi := s.Min(), s.Max()
	span := hi - lo
	counts := make([]int, buckets)
	for _, v := range s.vals {
		idx := 0
		if span > 0 {
			idx = int(float64(buckets) * (v - lo) / span)
			if idx >= buckets {
				idx = buckets - 1
			}
		}
		counts[idx]++
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range counts {
		bLo := lo + span*float64(i)/float64(buckets)
		bHi := lo + span*float64(i+1)/float64(buckets)
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", c*width/peak)
		}
		if _, err := fmt.Fprintf(w, "%12.3f - %12.3f | %-*s %d\n", bLo, bHi, width, bar, c); err != nil {
			return err
		}
	}
	return nil
}

// Point is one (x, y) sample of a sweep.
type Point struct {
	X, Y float64
}

// Saturation locates the saturation point of an offered-vs-accepted
// throughput sweep: the largest offered load at which accepted traffic
// still tracks offered traffic within tol (e.g. 0.05 for 5%). It
// returns the accepted throughput there. If the first point already
// diverges, it returns that point.
func Saturation(points []Point, tol float64) Point {
	if len(points) == 0 {
		return Point{}
	}
	best := points[0]
	for _, p := range points {
		if p.X <= 0 {
			continue
		}
		if (p.X-p.Y)/p.X <= tol && p.Y >= best.Y {
			best = p
		}
	}
	return best
}
