package routing

import (
	"fmt"

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

// escapePathFunc returns the engine's pathFunc: one legal BFS per
// source, cached for the host-major build order.
func (e MinimalEscapeEngine) escapePathFunc(g *engineGraph, avoid *Avoid) pathFunc {
	tree := newSearchTree(2 * len(g.sws))
	queue := make([]int32, 0, 2*len(g.sws))
	lastSrc := int32(-1)
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		si, di := g.sidx[srcSw], g.sidx[dstSw]
		if si < 0 || di < 0 {
			return nil, nil, nil, fmt.Errorf("routing: %d->%d is not a switch pair", srcSw, dstSw)
		}
		if si != lastSrc {
			g.legalBFS(si, 0, avoid, tree, queue)
			lastSrc = si
		}
		goal := tree.bestState(di)
		if goal < 0 {
			return nil, nil, nil, fmt.Errorf("routing: no legal path from switch %d to %d", srcSw, dstSw)
		}
		trav, _ := g.traversalsTo(tree, goal)
		return trav, nil, nil, nil
	}
}

// BuildTable implements Engine.
func (e MinimalEscapeEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	tbl, _, err := e.RebuildAvoiding(nil, t, avoid)
	return tbl, err
}

// RebuildAvoiding implements Engine.
func (e MinimalEscapeEngine) RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error) {
	return rebuildEngineTable(e, prev, t, UpDownRouting, avoid, func(g *engineGraph) pathFunc {
		return e.escapePathFunc(g, avoid)
	})
}

// CheckDeadlockFree implements Engine.
func (MinimalEscapeEngine) CheckDeadlockFree(tbl *Table) error {
	return CheckDeadlockFree(tbl.Routes())
}

// Lanes implements Engine: every route is legal under one orientation
// with no lane changes, so a single lane per direction suffices.
func (MinimalEscapeEngine) Lanes() int { return 1 }

// BuildCompact implements Engine: one legal BFS per source switch.
func (e MinimalEscapeEngine) BuildCompact(t *topology.Topology, avoid *Avoid) (*CompactTable, error) {
	if err := engineCheckTopology(e.Name(), t); err != nil {
		return nil, err
	}
	ud := e.Orientation(t)
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
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
	tree := newSearchTree(2 * s)
	queue := make([]int32, 0, 2*s)
	var scratch []int32
	for si := 0; si < s; si++ {
		g.legalBFS(int32(si), 0, avoid, tree, queue)
		for di := 0; di < s; di++ {
			ct.off[si*s+di] = uint32(len(ct.steps))
			if si == di {
				continue
			}
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
