package routing

import (
	"testing"

	"repro/internal/topology"
)

// Per-layer routing benchmarks: the host-pair Table build, a Table
// lookup, and a lazy table install.

func benchDragonfly(b *testing.B, hosts int) *topology.Topology {
	b.Helper()
	topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkBuildTable builds the all-pairs Table of dragonfly-72 with
// each of the paper's two routings.
func BenchmarkBuildTable(b *testing.B) {
	topo := benchDragonfly(b, 72)
	for _, c := range []struct {
		name string
		alg  *UpDownEngine
	}{{"updown", UpDownRouting}, {"itb", ITBRouting}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.alg.BuildTable(topo, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPairs lists a topology's ordered host pairs in host-major
// order.
func benchPairs(topo *topology.Topology) [][2]topology.NodeID {
	var pairs [][2]topology.NodeID
	for _, s := range topo.Hosts() {
		for _, d := range topo.Hosts() {
			if s != d {
				pairs = append(pairs, [2]topology.NodeID{s, d})
			}
		}
	}
	return pairs
}

// BenchmarkTableLookup is one Table.Lookup of the updown-itb
// dragonfly-342 table per op, cycling over every host pair.
func BenchmarkTableLookup(b *testing.B) {
	topo := benchDragonfly(b, 342)
	tbl, err := ITBRouting.BuildTable(topo, nil)
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchPairs(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, ok := tbl.Lookup(p[0], p[1]); !ok {
			b.Fatal("missing route")
		}
	}
}

// BenchmarkLazyInstallRow is one gossip table install on dragonfly-72
// (lazyInstallRow).
func BenchmarkLazyInstallRow(b *testing.B) {
	install := lazyInstallRow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install()
	}
}

// lazyInstallRow returns one gossip table install on dragonfly-72: a
// 20-host dead set built as a gossip agent builds it, the lazy rebuild
// of the updown-itb base around it, then the first host's row resolved
// against all 71 peers (the dead ones resolve unroutable).
func lazyInstallRow(tb testing.TB) func() {
	tb.Helper()
	topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		tb.Fatal(err)
	}
	base, err := ITBRouting.BuildTable(topo, nil)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := topo.Hosts()
	src := hosts[0]
	return func() {
		avoid := AvoidHostsIn(topo)
		for k := 1; k <= 20; k++ {
			avoid.AddHost(hosts[k*3])
		}
		tbl := base.RebuildLazy(avoid, nil)
		for _, dst := range hosts[1:] {
			tbl.Lookup(src, dst)
		}
	}
}
