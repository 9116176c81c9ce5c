package routing

import (
	"fmt"

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

// layeredPathFunc returns the engine's pathFunc over a prepared graph.
// The per-source trees are cached for the last source switch, which
// the host-major build order turns into one search batch per source.
func (e LayeredEngine) layeredPathFunc(g *engineGraph, avoid *Avoid) pathFunc {
	l := e.layers()
	trees := make([]*searchTree, l)
	for i := range trees {
		trees[i] = newSearchTree(2 * len(g.sws))
	}
	queue := make([]int32, 0, 2*len(g.sws))
	lastSrc := int32(-1)
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		si, di := g.sidx[srcSw], g.sidx[dstSw]
		if si < 0 || di < 0 {
			return nil, nil, nil, fmt.Errorf("routing: %d->%d is not a switch pair", srcSw, dstSw)
		}
		if si != lastSrc {
			for layer := 0; layer < l; layer++ {
				g.legalBFS(si, layer, avoid, trees[layer], queue)
			}
			lastSrc = si
		}
		tree := trees[pairLayer(int(si), int(di), l)]
		goal := tree.bestState(di)
		if goal < 0 {
			return nil, nil, nil, fmt.Errorf("routing: no legal path from switch %d to %d", srcSw, dstSw)
		}
		trav, _ := g.traversalsTo(tree, goal)
		return trav, nil, nil, nil
	}
}

// BuildTable implements Engine. Layered routes carry no in-transit
// buffers, so the table's Algorithm is UpDownRouting.
func (e LayeredEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	tbl, _, err := e.RebuildAvoiding(nil, t, avoid)
	return tbl, err
}

// RebuildAvoiding implements Engine.
func (e LayeredEngine) RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error) {
	return rebuildEngineTable(e, prev, t, UpDownRouting, avoid, func(g *engineGraph) pathFunc {
		return e.layeredPathFunc(g, avoid)
	})
}

// CheckDeadlockFree implements Engine.
func (LayeredEngine) CheckDeadlockFree(tbl *Table) error {
	return CheckDeadlockFree(tbl.Routes())
}

// Lanes implements Engine: the tie-break layers are a route-choice
// schedule, not fabric lanes — one physical channel per direction.
func (LayeredEngine) Lanes() int { return 1 }

// BuildCompact implements Engine: per source, one legal BFS per layer,
// then every destination reads its path from its hash-assigned layer.
func (e LayeredEngine) BuildCompact(t *topology.Topology, avoid *Avoid) (*CompactTable, error) {
	if err := engineCheckTopology(e.Name(), t); err != nil {
		return nil, err
	}
	ud := e.Orientation(t)
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	l := e.layers()
	s := len(g.sws)
	ct := &CompactTable{
		EngineName: e.Name(),
		t:          t,
		ud:         ud,
		avoid:      avoid,
		sws:        g.sws,
		sidx:       g.sidx,
		off:        make([]uint32, s*s+1),
	}
	trees := make([]*searchTree, l)
	for i := range trees {
		trees[i] = newSearchTree(2 * s)
	}
	queue := make([]int32, 0, 2*s)
	var scratch []int32
	for si := 0; si < s; si++ {
		for layer := 0; layer < l; layer++ {
			g.legalBFS(int32(si), layer, avoid, trees[layer], queue)
		}
		for di := 0; di < s; di++ {
			ct.off[si*s+di] = uint32(len(ct.steps))
			if si == di {
				continue
			}
			tree := trees[pairLayer(si, di, l)]
			goal := tree.bestState(int32(di))
			if goal < 0 {
				if avoid == nil {
					return nil, fmt.Errorf("routing: engine %q: switch %d unreachable from %d", e.Name(), g.sws[di], g.sws[si])
				}
				continue
			}
			ct.steps, scratch, err = g.appendPath(ct.steps, tree, goal, g.hostPorts, 0, scratch)
			if err != nil {
				return nil, err
			}
		}
	}
	ct.off[s*s] = uint32(len(ct.steps))
	return ct, nil
}
