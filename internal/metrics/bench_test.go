package metrics

import "testing"

// BenchmarkNilRegistry is the disabled-metrics path a component's
// hot loop pays: instruments handed out by a nil registry, then a
// counter add, a gauge high-water update and a histogram observation,
// all no-ops on nil receivers. It must not allocate.
func BenchmarkNilRegistry(b *testing.B) {
	var r *Registry
	bounds := DefaultLatencyBucketsNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("fabric.delivered").Inc()
		r.Gauge("fabric.queue_max").SetMax(float64(i))
		r.Histogram("gm.latency_ns", bounds).Observe(float64(i))
	}
}
