package routing

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// The cross-engine property suite: every registered engine must
// deliver the same contract on every topology class at every size —
// all-pairs reachability, hop-by-hop up*/down* legality under the
// engine's own orientation, and channel-dependency acyclicity. The
// cells run CertifyEngine, which checks every switch path as the
// search walks it and stores none, so it scales to 4096 hosts;
// TestEngineTableAgreesWithCertificate ties the Table to the certified
// paths at small scale.

// propClasses are the generator families of the engine study.
var propClasses = []string{"irregular", "fattree", "dragonfly"}

// propTopology builds one cell topology. Sizes are nominal host
// counts; each generator rounds to its nearest valid configuration.
func propTopology(tb testing.TB, class string, hosts int, seed int64) *topology.Topology {
	tb.Helper()
	var t *topology.Topology
	var err error
	switch class {
	case "irregular":
		t, err = topology.Generate(topology.DefaultGenConfig(hosts/4, seed))
	case "fattree":
		t, err = topology.FatTree(topology.DefaultFatTreeConfig(hosts))
	case "dragonfly":
		t, err = topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
	default:
		tb.Fatalf("unknown topology class %q", class)
	}
	if err != nil {
		tb.Fatalf("%s/%d: %v", class, hosts, err)
	}
	return t
}

func TestEnginePropertySuite(t *testing.T) {
	sizes := []int{64, 256, 1024}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 4096)
	}
	for _, class := range propClasses {
		for _, size := range sizes {
			topo := propTopology(t, class, size, 1)
			for _, e := range Engines() {
				t.Run(fmt.Sprintf("%s/%d/%s", class, size, e.Name()), func(t *testing.T) {
					a, err := CertifyEngine(e, topo)
					if err != nil {
						t.Fatalf("CertifyEngine: %v", err)
					}
					n := len(topo.Switches())
					if a.Engine != e.Name() || a.Switches != n || a.Pairs != n*(n-1) {
						t.Fatalf("analysis of engine %q: %d switches, %d pairs; want %q, %d, %d",
							a.Engine, a.Switches, a.Pairs, e.Name(), n, n*(n-1))
					}
					// Determinism: a second certification is identical.
					if size <= 256 {
						again, err := CertifyEngine(e, topo)
						if err != nil {
							t.Fatalf("second CertifyEngine: %v", err)
						}
						if again != a {
							t.Fatalf("certification is not deterministic:\n%+v\n%+v", a, again)
						}
					}
				})
			}
		}
	}
}

// TestEnginePairPropertiesQuick drives testing/quick over random
// switch pairs of each (engine, size) cell: the certified path must
// start at the source switch, end at the destination, cross only
// cabled switch-switch links, and be no shorter than the unrestricted
// shortest path.
func TestEnginePairPropertiesQuick(t *testing.T) {
	for _, size := range []int{16, 64} {
		topo := propTopology(t, "irregular", size, 7)
		for _, e := range Engines() {
			t.Run(fmt.Sprintf("%d/%s", size, e.Name()), func(t *testing.T) {
				_, paths := certifiedPaths(t, e, topo)
				g := mustGraph(topo, e.Orientation(topo))
				sws := topo.Switches()
				s := len(sws)
				dist := make([]int32, s)
				prop := func(a, b uint16) bool {
					si, di := int(a)%s, int(b)%s
					path := paths[[2]int{si, di}]
					if si == di {
						return path == nil
					}
					csws, _, _ := certifiedHops(path)
					if csws[0] != sws[si] || csws[len(csws)-1] != sws[di] {
						t.Logf("pair (%d,%d): path %v", si, di, csws)
						return false
					}
					hops := 0
					for k := 1; k < len(csws); k++ {
						if csws[k] == csws[k-1] {
							continue // an in-transit reset
						}
						if !slices.ContainsFunc(topo.SwitchNeighbors(csws[k-1]), func(nb topology.Neighbor) bool { return nb.Node == csws[k] }) {
							t.Logf("pair (%d,%d): no link %d->%d", si, di, csws[k-1], csws[k])
							return false
						}
						hops++
					}
					g.plainBFS(int32(si), dist, nil)
					if int32(hops) < dist[di] {
						t.Logf("pair (%d,%d): %d hops, shortest path %d", si, di, hops, dist[di])
						return false
					}
					return true
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
