// Package metrics is the observability substrate of the repro: a
// registry of named counters, gauges and fixed-bucket latency
// histograms that the fabric, the MCP firmware, the GM layer and the
// routing analysis publish into. Every experiment run owns a private
// registry (like it owns a private engine and RNGs); the drivers merge
// the per-run registries in input order, so a merged snapshot is
// byte-identical at any worker count — the same determinism contract
// the parallel runner certifies for the tables.
//
// The package is nil-safe end to end: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver.
// Components therefore instrument their hot paths unconditionally and
// pay only a nil-check when metrics are disabled (certified by
// BenchmarkFig7Metrics in internal/core).
//
// Registries are not goroutine-safe — each one is confined to the
// single goroutine of its simulation run, by the same discipline as
// the event engine.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v uint64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time float64.
type Gauge struct {
	v float64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// SetMax stores v if it exceeds the current value — peak tracking
// (queue high-water marks). No-op on a nil gauge.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution with exact percentiles: in
// addition to the bucket counts it retains the raw samples in a
// stats.Summary, so p50/p95/p99 are order statistics, not bucket
// interpolations, and survive merging exactly.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; counts has one extra overflow bucket
	counts  []uint64
	sum     float64
	samples stats.Summary
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.samples.Add(v)
}

// Count returns the number of samples (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return uint64(h.samples.N())
}

// DefaultLatencyBucketsNs are the upper bounds (nanoseconds) used for
// the per-hop latency histograms: half-decade steps from 500 ns (a
// single switch crossing) to 10 ms (a retransmission timeout).
func DefaultLatencyBucketsNs() []float64 {
	return []float64{500, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7}
}

// Registry holds the named instruments of one simulation run.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use (later calls may pass nil
// bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// MergePrefixed folds another registry into this one with every
// source name prefixed: counters sum, gauges keep the maximum (peak
// semantics), histograms append bucket counts and samples. Drivers
// call it in run input order, which pins the merged sample order — and
// hence the snapshot bytes — independent of the worker count. The
// prefix keeps each run's instruments distinguishable when a driver
// runs several configurations (fig7's original/modified firmware,
// fig8's UD/UD-ITB paths, a sweep's load points). Merging a nil or
// into a nil registry no-ops.
func (r *Registry) MergePrefixed(prefix string, o *Registry) {
	if r == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		r.Counter(prefix + name).Add(c.v)
	}
	for name, g := range o.gauges {
		r.Gauge(prefix + name).SetMax(g.v)
	}
	for name, oh := range o.hists {
		h := r.Histogram(prefix+name, oh.bounds)
		if len(h.counts) != len(oh.counts) {
			panic(fmt.Sprintf("metrics: histogram %q merged with mismatched buckets", prefix+name))
		}
		for i, n := range oh.counts {
			h.counts[i] += n
		}
		h.sum += oh.sum
		for _, v := range oh.samples.Values() {
			h.samples.Add(v)
		}
	}
}

// HistogramSnapshot is the serialised form of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Snapshot is a point-in-time, serialisable dump of a registry.
// encoding/json emits map keys sorted, so identical values marshal to
// identical bytes.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. Percentiles are
// derived from the retained samples via internal/stats. A nil registry
// snapshots empty (but non-nil) maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  uint64(h.samples.N()),
			Sum:    h.sum,
		}
		if h.samples.N() > 0 {
			hs.P50 = h.samples.Percentile(50)
			hs.P95 = h.samples.Percentile(95)
			hs.P99 = h.samples.Percentile(99)
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON emits the snapshot as indented JSON with a trailing
// newline. The encoding is deterministic: map keys sort, and equal
// values render to equal bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
