package routing

import (
	"testing"

	"repro/internal/topology"
)

// Engine-level Rebuild coverage: the incremental rebuild must behave
// identically across engines — full reuse under an empty exclusion
// set, correct re-routing around a dead orientation root, and silent
// omission of pairs cut off by a partitioning fault.

func rebuildTestTopology(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultGenConfig(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestEngineRebuildEmptyAvoidMatchesFullBuild(t *testing.T) {
	topo := rebuildTestTopology(t)
	for _, e := range Engines() {
		t.Run(e.Name(), func(t *testing.T) {
			full, err := e.BuildTable(topo, nil)
			if err != nil {
				t.Fatalf("BuildTable: %v", err)
			}
			reb, reused := full.Rebuild(AvoidLinks())
			if reused != full.Len() {
				t.Errorf("reused %d routes, want all %d", reused, full.Len())
			}
			if reb.Len() != full.Len() {
				t.Errorf("rebuilt table has %d routes, full build %d", reb.Len(), full.Len())
			}
			// Reused routes are shared, not recomputed.
			hosts := topo.Hosts()
			a, _ := full.Lookup(hosts[0], hosts[len(hosts)-1])
			b, _ := reb.Lookup(hosts[0], hosts[len(hosts)-1])
			if a != b {
				t.Errorf("route %d->%d was recomputed instead of reused", hosts[0], hosts[len(hosts)-1])
			}
		})
	}
}

func TestEngineRebuildDeadRoot(t *testing.T) {
	topo := rebuildTestTopology(t)
	for _, e := range Engines() {
		t.Run(e.Name(), func(t *testing.T) {
			full, err := e.BuildTable(topo, nil)
			if err != nil {
				t.Fatalf("BuildTable: %v", err)
			}
			ud := e.Orientation(topo)
			root := ud.Root
			// Kill every cable touching the orientation root: its hosts
			// die with their uplinks, and no surviving route may cross it.
			avoid := AvoidLinks()
			for _, nb := range topo.Neighbors(root) {
				avoid.AddLink(nb.Link.ID)
			}
			reb, reused := full.Rebuild(avoid)
			if reused >= full.Len() {
				t.Errorf("reused %d of %d routes despite a dead root", reused, full.Len())
			}
			if reb.Len() == 0 {
				t.Fatalf("no routes survive a dead root on a topology with extra links")
			}
			deadHosts := len(topo.HostsAt(root))
			live := len(topo.Hosts()) - deadHosts
			if max := live * (live - 1); reb.Len() > max {
				t.Errorf("%d routes for %d live hosts (max %d)", reb.Len(), live, max)
			}
			for _, r := range reb.Routes() {
				if !routeValid(r, avoid) {
					t.Fatalf("route %d->%d crosses the dead root's cables", r.Src, r.Dst)
				}
				for _, sw := range r.SwitchPath() {
					if sw == root {
						t.Fatalf("route %d->%d crosses the dead root switch", r.Src, r.Dst)
					}
				}
			}
		})
	}
}

// partitionedTopology builds two 4-switch rings joined by one bridge
// link, two hosts per switch; avoiding the bridge partitions the
// network into two equal halves.
func partitionedTopology(t *testing.T) (*topology.Topology, int) {
	t.Helper()
	topo := topology.New()
	var sws [8]topology.NodeID
	for i := range sws {
		sws[i] = topo.AddSwitch(8, "")
	}
	for half := 0; half < 2; half++ {
		base := half * 4
		for i := 0; i < 4; i++ {
			topo.ConnectAny(sws[base+i], sws[base+(i+1)%4], topology.SAN)
		}
	}
	bridge := topo.ConnectAny(sws[0], sws[4], topology.SAN)
	for _, sw := range sws {
		for j := 0; j < 2; j++ {
			topo.ConnectAny(topo.AddHost(""), sw, topology.LAN)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo, bridge
}

func TestEngineRebuildPartitioned(t *testing.T) {
	topo, bridge := partitionedTopology(t)
	for _, e := range Engines() {
		t.Run(e.Name(), func(t *testing.T) {
			full, err := e.BuildTable(topo, nil)
			if err != nil {
				t.Fatalf("BuildTable: %v", err)
			}
			reb, _ := full.Rebuild(AvoidLinks(bridge))
			// 16 hosts, 8 per half: cross-half pairs are silently
			// omitted, same-half pairs all survive.
			if want := 2 * 8 * 7; reb.Len() != want {
				t.Errorf("%d routes after partition, want %d", reb.Len(), want)
			}
			hosts := topo.Hosts()
			if _, ok := reb.Lookup(hosts[0], hosts[15]); ok {
				t.Errorf("cross-partition pair still routed")
			}
			if r, ok := reb.Lookup(hosts[0], hosts[7]); !ok {
				t.Errorf("same-half pair lost")
			} else if !routeValid(r, AvoidLinks(bridge)) {
				t.Errorf("surviving route crosses the bridge")
			}
		})
	}
}
