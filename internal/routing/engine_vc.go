package routing

import (
	"repro/internal/topology"
)

// VCEscapeEngine is the virtual-channel counterpart of the paper's
// mechanism, built for the ITB-vs-VC ablation. Routes are minimal-hop
// paths over the stock BFS up*/down* orientation in which a forbidden
// down->up transition is repaired not by an in-transit buffer but by
// bumping the packet onto the next virtual lane (a LASH-style lane
// schedule): each lane's sub-segments are up*/down*-legal on their
// own, and a bump strictly increases the lane, so ordering channels
// by (lane, orientation rank) is acyclic — deadlock freedom without
// consuming the packet at a host.
//
// With NumLanes == 1 no bumps are possible and the engine degenerates
// to pure legal shortest paths (the zero-ITB up*/down* baseline).
// With ITBRepair set the engine may ALSO reset via an in-transit
// buffer (returning to lane 0), letting the search trade a hop
// detour against an ITB against a lane — the "both" arm of the
// ablation.
type VCEscapeEngine struct {
	// NumLanes is the virtual-lane count per link direction; 0 and 1
	// both mean a single lane (no bumps available). A lane number
	// rides in one header byte, so the count is at most 255.
	NumLanes int
	// ITBRepair additionally allows in-transit-buffer resets, which
	// consume the packet and restart it on lane 0.
	ITBRepair bool
}

func (e VCEscapeEngine) lanes() int {
	if e.NumLanes < 1 {
		return 1
	}
	return e.NumLanes
}

// Name implements Engine.
func (e VCEscapeEngine) Name() string {
	if e.ITBRepair {
		return "vc-itb"
	}
	return "vc-escape"
}

// Description implements Engine.
func (e VCEscapeEngine) Description() string {
	if e.ITBRepair {
		return "minimal paths over BFS up*/down*, violations repaired by a lane bump or an in-transit buffer (the ablation's combined arm)"
	}
	return "minimal paths over BFS up*/down*, violations repaired by bumping onto the next virtual lane (LASH-style escape lanes)"
}

// Orientation implements Engine: the stock BFS orientation, shared
// with the reference updown-itb engine so the ablation compares
// repair mechanisms, not orientations.
func (VCEscapeEngine) Orientation(t *topology.Topology) *topology.UpDown {
	return topology.BuildUpDown(t)
}

// Lanes implements Engine.
func (e VCEscapeEngine) Lanes() int { return e.lanes() }

// search implements Engine: one lane-aware Dijkstra per source over
// (switch, phase, lane) states, where a forbidden turn is repaired by a
// bump onto the next lane or, with ITBRepair, an in-transit reset.
// Each destination's goal is its cheapest state (ties to phase 0 and
// lower lanes).
func (e VCEscapeEngine) search() search {
	return search{dijkstra: true, layers: 1, lanes: uint8(e.lanes()), itb: e.ITBRepair}
}

// BuildTable implements Engine.
func (e VCEscapeEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	return buildTable(e, t, avoid)
}
