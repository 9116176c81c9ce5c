package routing

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/topology"
)

// vcVariants are the ablation's engine configurations: the pure
// lane-escape arm and the combined arm, at the lane counts the VC
// study sweeps.
func vcVariants() []VCEscapeEngine {
	var vs []VCEscapeEngine
	for _, lanes := range []int{1, 2, 4} {
		vs = append(vs,
			VCEscapeEngine{NumLanes: lanes},
			VCEscapeEngine{NumLanes: lanes, ITBRepair: true},
		)
	}
	return vs
}

// TestVCEngineContract runs the cross-engine contract over every vc
// variant and topology class: all-pairs reachability, route validity
// (with per-lane legality), and lane-aware deadlock certification of
// both the Table's routes and the engine's certified switch paths.
func TestVCEngineContract(t *testing.T) {
	for _, class := range propClasses {
		topo := propTopology(t, class, 64, 1)
		for _, e := range vcVariants() {
			t.Run(fmt.Sprintf("%s/%s/l%d", class, e.Name(), e.lanes()), func(t *testing.T) {
				tbl, err := e.BuildTable(topo, nil)
				if err != nil {
					t.Fatalf("BuildTable: %v", err)
				}
				hosts := topo.Hosts()
				if want := len(hosts) * (len(hosts) - 1); tbl.Len() != want {
					t.Fatalf("%d routes, want %d", tbl.Len(), want)
				}
				ud := e.Orientation(topo)
				for _, r := range tbl.Routes() {
					if err := r.Validate(topo, ud); err != nil {
						t.Fatalf("route %d->%d: %v", r.Src, r.Dst, err)
					}
				}
				if err := CheckDeadlockFree(tbl.Routes()); err != nil {
					t.Fatalf("CheckDeadlockFree(Table): %v", err)
				}
				if _, err := CertifyEngine(e, topo); err != nil {
					t.Fatalf("CertifyEngine: %v", err)
				}
			})
		}
	}
}

// TestVCLanesMonotone pins the LASH deadlock argument structurally:
// within one route segment (between in-transit resets) the lane never
// decreases, and every lane is within the engine's declared count.
func TestVCLanesMonotone(t *testing.T) {
	topo := propTopology(t, "irregular", 64, 3)
	for _, e := range vcVariants() {
		t.Run(fmt.Sprintf("%s/l%d", e.Name(), e.lanes()), func(t *testing.T) {
			tbl, err := e.BuildTable(topo, nil)
			if err != nil {
				t.Fatalf("BuildTable: %v", err)
			}
			for _, r := range tbl.Routes() {
				lanes, links := r.Lanes(), r.LinkPath()
				if lanes == nil {
					continue
				}
				if len(lanes) != len(links) {
					t.Fatalf("route %d->%d: %d lanes for %d traversals", r.Src, r.Dst, len(lanes), len(links))
				}
				prev := uint8(0)
				itbIdx := 0
				for k, lane := range lanes {
					if int(lane) >= e.lanes() {
						t.Fatalf("route %d->%d: lane %d beyond engine's %d", r.Src, r.Dst, lane, e.lanes())
					}
					if lane < prev {
						t.Fatalf("route %d->%d: lane drops %d->%d without a reset", r.Src, r.Dst, prev, lane)
					}
					prev = lane
					if itbIdx < len(r.ITBHosts()) && links[k].To() == r.ITBHosts()[itbIdx] {
						itbIdx++
						prev = 0 // re-injection restarts on lane 0
					}
				}
			}
		})
	}
}

// TestVCSingleLaneIsPureUpDown pins the degenerate case: with one
// lane and no ITB repair the engine is exactly the legal-shortest-path
// discipline — same hop count as the per-pair legacy search, zero
// ITBs, and every certified hop on lane 0.
func TestVCSingleLaneIsPureUpDown(t *testing.T) {
	topo := propTopology(t, "irregular", 64, 1)
	e := VCEscapeEngine{NumLanes: 1}
	ud := e.Orientation(topo)
	tbl, err := e.BuildTable(topo, nil)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	for _, r := range tbl.Routes() {
		if r.NumITBs() != 0 {
			t.Fatalf("route %d->%d uses %d ITBs on the pure vc engine", r.Src, r.Dst, r.NumITBs())
		}
		srcSw, _ := topo.SwitchOf(r.Src)
		dstSw, _ := topo.SwitchOf(r.Dst)
		if srcSw == dstSw {
			continue
		}
		trav, err := oracleSearchPath(topo, ud, srcSw, dstSw, nil)
		if err != nil {
			t.Fatalf("per-pair search %d->%d: %v", srcSw, dstSw, err)
		}
		// LinkPath = hostUp + switch hops + delivery.
		if got, want := len(r.LinkPath())-2, len(trav); got != want {
			t.Fatalf("route %d->%d: %d switch hops, legal shortest path has %d", r.Src, r.Dst, got, want)
		}
	}
	a, paths := certifiedPaths(t, e, topo)
	if a.TotalITBs != 0 {
		t.Fatalf("certified paths use %d ITBs", a.TotalITBs)
	}
	for pair, path := range paths {
		if _, lanes, _ := certifiedHops(path); slices.ContainsFunc(lanes, func(l uint8) bool { return l != 0 }) {
			t.Fatalf("switch pair %v: certified lanes %v", pair, lanes)
		}
	}
}

// TestVCITBNeedsFewerITBs pins the ablation's headline mechanism:
// with lanes available, the combined engine repairs most violations
// with a lane bump and so spends strictly fewer in-transit buffers
// than the reference updown-itb engine on a topology that needs them,
// at no hop cost.
func TestVCITBNeedsFewerITBs(t *testing.T) {
	topo := propTopology(t, "irregular", 64, 1)
	refA, err := CertifyEngine(ITBRouting, topo)
	if err != nil {
		t.Fatalf("reference CertifyEngine: %v", err)
	}
	if refA.TotalITBs == 0 {
		t.Skip("topology needs no ITBs; nothing to compare")
	}
	vcA, err := CertifyEngine(VCEscapeEngine{NumLanes: 2, ITBRepair: true}, topo)
	if err != nil {
		t.Fatalf("vc CertifyEngine: %v", err)
	}
	if vcA.TotalITBs >= refA.TotalITBs {
		t.Fatalf("vc-itb uses %d ITBs, reference %d — lanes bought nothing", vcA.TotalITBs, refA.TotalITBs)
	}
	if vcA.AvgHops > refA.AvgHops {
		t.Fatalf("vc-itb averages %.3f hops, reference %.3f — lanes cost hops", vcA.AvgHops, refA.AvgHops)
	}
}

// TestVCEngineResolution pins the registry split: the vc engines
// resolve by name and show in listings, but stay out of Engines() so
// the default study grids (and their goldens) are untouched.
func TestVCEngineResolution(t *testing.T) {
	for _, name := range []string{"vc-escape", "vc-itb"} {
		e, ok := EngineByName(name)
		if !ok {
			t.Fatalf("EngineByName(%q) failed", name)
		}
		if e.Name() != name {
			t.Fatalf("EngineByName(%q) resolved %q", name, e.Name())
		}
		if e.Lanes() < 2 {
			t.Fatalf("named engine %q declares %d lanes", name, e.Lanes())
		}
	}
	for _, e := range Engines() {
		if e.Name() == "vc-escape" || e.Name() == "vc-itb" {
			t.Fatalf("vc engine %q leaked into the registry", e.Name())
		}
		if e.Lanes() != 1 {
			t.Fatalf("registry engine %q declares %d lanes", e.Name(), e.Lanes())
		}
	}
}

// TestVCRebuildAvoiding exercises the fault path: killing a link
// forces recomputation, the surviving routes are reused, and the
// rebuilt table still certifies deadlock free.
func TestVCRebuildAvoiding(t *testing.T) {
	topo := propTopology(t, "irregular", 64, 1)
	e := VCEscapeEngine{NumLanes: 2, ITBRepair: true}
	tbl, err := e.BuildTable(topo, nil)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	// Kill the first switch-switch link.
	var dead int
	for _, l := range topo.Links() {
		if topo.Node(l.A).Kind == topology.KindSwitch && topo.Node(l.B).Kind == topology.KindSwitch {
			dead = l.ID
			break
		}
	}
	avoid := AvoidLinks(dead)
	next, reused := tbl.Rebuild(avoid)
	if reused == 0 {
		t.Fatalf("no routes reused after a single link fault")
	}
	ud := e.Orientation(topo)
	for _, r := range next.Routes() {
		for _, tr := range r.LinkPath() {
			if tr.Link.ID == dead {
				t.Fatalf("route %d->%d crosses the dead link", r.Src, r.Dst)
			}
		}
		if err := r.Validate(topo, ud); err != nil {
			t.Fatalf("route %d->%d: %v", r.Src, r.Dst, err)
		}
	}
	if err := CheckDeadlockFree(next.Routes()); err != nil {
		t.Fatalf("CheckDeadlockFree after rebuild: %v", err)
	}
}
