package routing

import (
	"repro/internal/topology"
)

// defaultLayers is the layer count of the layered engine; four layers
// give most pairs a path choice without inflating the per-source
// search cost.
const defaultLayers = 4

// LayeredEngine is a FatPaths-style multi-layer shortest-path engine.
// It computes, per source, several up*/down*-legal shortest-path trees
// that differ only in their adjacency tie-break (the neighbour
// iteration order is rotated per layer), and assigns each switch pair
// to one layer by hash. Equal-length path diversity is what Clos-like
// fabrics offer in abundance, so spreading pairs over rotated
// tie-breaks de-correlates their link choices and relieves hotspots
// without any in-transit buffers.
//
// Deadlock freedom: every layer routes up*/down*-legally under the
// SAME BFS orientation, so the union of all layers' channel
// dependencies respects one acyclic channel ordering — the layers are
// a tie-break schedule, not separate dependency domains.
type LayeredEngine struct {
	// Layers overrides the layer count; 0 selects defaultLayers.
	Layers int
}

func (e LayeredEngine) layers() int {
	if e.Layers > 0 {
		return e.Layers
	}
	return defaultLayers
}

// Name implements Engine.
func (LayeredEngine) Name() string { return "layered-ksp" }

// Description implements Engine.
func (LayeredEngine) Description() string {
	return "multi-layer up*/down* shortest paths, pairs spread over rotated tie-break layers (FatPaths style)"
}

// Orientation implements Engine: the shared BFS orientation all layers
// are legal under.
func (LayeredEngine) Orientation(t *topology.Topology) *topology.UpDown {
	return topology.BuildUpDown(t)
}

// pairLayer hashes a switch pair onto a layer. The mix keeps
// neighbouring pairs on different layers so consecutive hosts don't
// pile onto the same tree.
func pairLayer(si, di, layers int) int {
	return (si*31 + di*17) % layers
}

// BuildTable implements Engine.
func (e LayeredEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	return buildTable(e, t, avoid)
}

// Lanes implements Engine: the tie-break layers are a route-choice
// schedule, not fabric lanes — one physical channel per direction.
func (LayeredEngine) Lanes() int { return 1 }

// search implements Engine: per source, one legal BFS per layer; every
// destination reads its cheapest state (ties to phase 0) from its
// hash-assigned layer.
func (e LayeredEngine) search() search { return search{layers: uint8(e.layers()), lanes: 1} }
