package metrics

import (
	"strings"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %v", g.Value())
	}
	h := r.Histogram("z", DefaultLatencyBucketsNs())
	h.Observe(123)
	if h.Count() != 0 {
		t.Errorf("nil histogram count = %d", h.Count())
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	r.MergePrefixed("", NewRegistry()) // must not panic
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent").Add(3)
	r.Counter("sent").Inc()
	if got := r.Counter("sent").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	r.Gauge("peak").SetMax(2)
	r.Gauge("peak").SetMax(7)
	r.Gauge("peak").SetMax(5)
	if got := r.Gauge("peak").Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{5, 50, 500, 7} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != 4 || hs.Sum != 562 {
		t.Errorf("hist count/sum = %d/%v", hs.Count, hs.Sum)
	}
	// Buckets: <=10 gets 5 and 7; <=100 gets 50; overflow gets 500.
	want := []uint64{2, 1, 1}
	for i, n := range want {
		if hs.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], n)
		}
	}
	if hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Errorf("percentiles inconsistent: p50=%v p99=%v", hs.P50, hs.P99)
	}
}

// TestBucketBoundaryInclusive pins the bucket convention: a sample
// equal to a bound lands in that bound's bucket (upper bounds are
// inclusive).
func TestBucketBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", []float64{10, 100})
	h.Observe(10)
	h.Observe(100)
	hs := r.Snapshot().Histograms["b"]
	if hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 0 {
		t.Errorf("boundary buckets = %v", hs.Counts)
	}
}

func TestMergeSumsCountersMaxesGauges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(2)
	b.Counter("n").Add(3)
	b.Counter("only_b").Inc()
	a.Gauge("peak").Set(5)
	b.Gauge("peak").Set(3)
	a.Histogram("h", []float64{10}).Observe(1)
	b.Histogram("h", []float64{10}).Observe(20)
	a.MergePrefixed("", b)
	s := a.Snapshot()
	if s.Counters["n"] != 5 || s.Counters["only_b"] != 1 {
		t.Errorf("merged counters = %v", s.Counters)
	}
	if s.Gauges["peak"] != 5 {
		t.Errorf("merged gauge = %v, want max 5", s.Gauges["peak"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged histogram = %+v", h)
	}
}

// TestSnapshotJSONDeterministic certifies the byte-level contract the
// drivers rely on: two registries built identically render identical
// JSON, and keys appear sorted.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insert in different orders; maps do not retain order anyway,
		// and JSON must sort.
		r.Counter("zeta").Add(1)
		r.Counter("alpha").Add(2)
		r.Gauge("mid").Set(1.5)
		h := r.Histogram("lat", []float64{100, 1000})
		h.Observe(40)
		h.Observe(400)
		return r
	}
	var sb1, sb2 strings.Builder
	if err := build().Snapshot().WriteJSON(&sb1); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WriteJSON(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb1.String() != sb2.String() {
		t.Errorf("snapshots differ:\n%s\n---\n%s", sb1.String(), sb2.String())
	}
	if strings.Index(sb1.String(), "alpha") > strings.Index(sb1.String(), "zeta") {
		t.Errorf("JSON keys not sorted:\n%s", sb1.String())
	}
}

// TestMergeOrderIndependentForCountersAndGauges: counters and gauges
// merge commutatively; histograms rely on the runner's fixed input
// order instead (sample order), so they are excluded here.
func TestMergeOrderIndependentForCountersAndGauges(t *testing.T) {
	mk := func() (*Registry, *Registry) {
		a, b := NewRegistry(), NewRegistry()
		a.Counter("n").Add(2)
		a.Gauge("g").Set(1)
		b.Counter("n").Add(9)
		b.Gauge("g").Set(4)
		return a, b
	}
	a1, b1 := mk()
	a1.MergePrefixed("", b1)
	a2, b2 := mk()
	b2.MergePrefixed("", a2)
	s1, s2 := a1.Snapshot(), b2.Snapshot()
	if s1.Counters["n"] != s2.Counters["n"] || s1.Gauges["g"] != s2.Gauges["g"] {
		t.Errorf("merge not commutative: %v/%v vs %v/%v",
			s1.Counters, s1.Gauges, s2.Counters, s2.Gauges)
	}
}
