package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// referencePattern is the event-driven source ScenarioPattern
// precomputes: every host's next arrival is a chained engine event,
// and each arrival draws its destination and then the gap to its
// host's next arrival from the one stream the chooser was built on,
// in the order the engine fires the events.
func referencePattern(t *testing.T, hosts []topology.NodeID, cfg PlanConfig) []Flow {
	t.Helper()
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dests, err := NewDestinations(hosts, cfg.Pattern, cfg.HotFraction, rng)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanGap(cfg.Load, cfg.Sizes.MeanBytes(), cfg.LinkBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := NewArrival(ArrivalConfig{Kind: Poisson}, mean, rng)
	if err != nil {
		t.Fatal(err)
	}
	var flows []Flow
	for i, h := range hosts {
		var tick func()
		tick = func() {
			if eng.Now() >= cfg.Horizon {
				return
			}
			flows = append(flows, Flow{Src: h, Dst: dests.Next(i), Start: eng.Now()})
			eng.Schedule(gaps.Next(), tick)
		}
		eng.Schedule(gaps.Next(), tick)
	}
	eng.Run()
	return flows
}

// TestPatternScenarioMatchesEventDrivenSource checks that
// ScenarioPattern yields the event-driven source's (src, dst, start)
// sequence for every pattern over several seeds and loads. The
// overload point quantises most gaps to 1 ps, so many arrivals tie
// and the tie order is exercised too.
func TestPatternScenarioMatchesEventDrivenSource(t *testing.T) {
	fat, err := topology.FatTree(topology.DefaultFatTreeConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	irr, err := topology.Generate(topology.DefaultGenConfig(6, 3)) // a host count that is no power of two
	if err != nil {
		t.Fatal(err)
	}
	mix, err := FixedSize(512)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		load    float64
		horizon units.Time
	}
	points := []point{{0.1, 2 * units.Millisecond}, {0.9, 500 * units.Microsecond}, {1e6, 2 * units.Nanosecond}}
	for _, topo := range []*topology.Topology{fat, irr} {
		hosts := topo.Hosts()
		for _, pat := range []Pattern{Uniform, HotSpot, BitReversal, Permutation} {
			for _, seed := range []int64{1, 7, 42} {
				for _, pt := range points {
					cfg := PlanConfig{
						Scenario: ScenarioPattern, Pattern: pat, HotFraction: 0.3,
						Load: pt.load, Sizes: mix, Seed: seed, Horizon: pt.horizon,
						LinkBandwidth: units.Bandwidth(160e6),
					}
					t.Run(fmt.Sprintf("%dhosts/%v/seed%d/load%g", len(hosts), pat, seed, pt.load), func(t *testing.T) {
						want := referencePattern(t, hosts, cfg)
						got, err := Plan(topo, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%d flows, reference %d", len(got), len(want))
						}
						for i, f := range got {
							w := want[i]
							if f.Src != w.Src || f.Dst != w.Dst || f.Start != w.Start || f.Bytes != 512 {
								t.Fatalf("flow %d = %+v, reference %+v (512 bytes)", i, f, w)
							}
						}
					})
				}
			}
		}
	}
}
