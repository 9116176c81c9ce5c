package routing

import (
	"repro/internal/topology"
)

// MinimalEscapeEngine routes each pair on the shortest path that is
// legal under a DFS up*/down* orientation — the "minimal with an
// escape layer" discipline of Dragonfly-style designs, transplanted to
// source routing: whenever some minimal path happens to be legal the
// pair gets a truly minimal route, and pairs whose minimal paths all
// require a forbidden turn "escape" onto the shortest legal detour
// instead of using in-transit buffers. The DFS orientation (deeper
// tree, branch-local cross edges) leaves far more minimal paths legal
// on dense graphs than the BFS one, which is what makes the discipline
// competitive on Dragonfly-like topologies.
//
// Deadlock freedom is the plain up*/down* argument: every route is
// legal under one acyclic orientation, with no resets at all — the
// engine-comparison study's zero-ITB baseline.
type MinimalEscapeEngine struct{}

// Name implements Engine.
func (MinimalEscapeEngine) Name() string { return "minimal-escape" }

// Description implements Engine.
func (MinimalEscapeEngine) Description() string {
	return "shortest DFS-up*/down*-legal paths: minimal where legal, escape detour otherwise, no in-transit buffers"
}

// Orientation implements Engine: the DFS labelling.
func (MinimalEscapeEngine) Orientation(t *topology.Topology) *topology.UpDown {
	return topology.BuildUpDownDFS(t)
}

// BuildTable implements Engine.
func (e MinimalEscapeEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	return buildTable(e, t, avoid)
}

// Lanes implements Engine: every route is legal under one orientation
// with no lane changes, so a single lane per direction suffices.
func (MinimalEscapeEngine) Lanes() int { return 1 }

// search implements Engine: one legal BFS per source, each
// destination's goal its cheapest state (ties to phase 0).
func (MinimalEscapeEngine) search() search { return search{layers: 1, lanes: 1} }
