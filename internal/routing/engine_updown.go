package routing

import (
	"fmt"

	"repro/internal/topology"
)

// UpDownITBEngine is the reference engine: the paper's mechanism.
// Routes are minimal-hop paths over the stock BFS up*/down*
// orientation in which every forbidden down->up transition is repaired
// by an in-transit buffer (ejection to a host attached to the turn
// switch and re-injection as a fresh packet). Deadlock freedom follows
// from each segment being up*/down*-legal and the ejection consuming
// the packet from the network.
type UpDownITBEngine struct{}

// Name implements Engine.
func (UpDownITBEngine) Name() string { return "updown-itb" }

// Description implements Engine.
func (UpDownITBEngine) Description() string {
	return "minimal paths over BFS up*/down*, violations repaired by in-transit buffers (the paper's mechanism)"
}

// Orientation implements Engine: the stock BFS orientation.
func (UpDownITBEngine) Orientation(t *topology.Topology) *topology.UpDown {
	return topology.BuildUpDown(t)
}

// BuildTable implements Engine: the ITBRouting table over the stock
// orientation, byte-for-byte the BuildTable tables the earlier
// experiments pinned.
func (e UpDownITBEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	tbl, _, err := e.RebuildAvoiding(nil, t, avoid)
	return tbl, err
}

// RebuildAvoiding implements Engine.
func (e UpDownITBEngine) RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error) {
	return rebuildEngineTable(e, prev, t, ITBRouting, avoid, nil)
}

// CheckDeadlockFree implements Engine.
func (UpDownITBEngine) CheckDeadlockFree(tbl *Table) error {
	return CheckDeadlockFree(tbl.Routes())
}

// Lanes implements Engine: the paper's mechanism needs no virtual
// channels — that is its whole point.
func (UpDownITBEngine) Lanes() int { return 1 }

// BuildCompact implements Engine: one in-transit Dijkstra per source
// switch, lexicographically minimising (hops, ITBs), with each
// destination's path read from its first settled state — the search
// and goal rule BuildTable uses, so both representations hold the same
// switch paths. In-transit ejection hosts are chosen by (src+dst)
// rotation over a switch's live hosts rather than BuildTable's
// least-loaded choice, spreading the in-transit load deterministically
// without per-pair state.
func (e UpDownITBEngine) BuildCompact(t *topology.Topology, avoid *Avoid) (*CompactTable, error) {
	if err := engineCheckTopology(e.Name(), t); err != nil {
		return nil, err
	}
	ud := e.Orientation(t)
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	eject := g.liveHostPorts(avoid)
	canReset := make([]bool, len(g.sws))
	for i := range canReset {
		canReset[i] = len(eject[i]) > 0
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
	st := newSearchTree(2 * s)
	heap := make([]itbHeapEntry, 0, 4*s)
	var scratch []int32
	for si := 0; si < s; si++ {
		heap = g.itbSearch(int32(si), avoid, canReset, st, heap)
		for di := 0; di < s; di++ {
			ct.off[si*s+di] = uint32(len(ct.steps))
			if si == di {
				continue
			}
			goal := st.goal[di]
			if goal < 0 {
				if avoid == nil {
					return nil, fmt.Errorf("routing: engine %q: switch %d unreachable from %d", e.Name(), g.sws[di], g.sws[si])
				}
				continue
			}
			ct.steps, scratch, err = g.appendPath(ct.steps, st, goal, eject, si+di, scratch)
			if err != nil {
				return nil, err
			}
		}
	}
	ct.off[s*s] = uint32(len(ct.steps))
	return ct, nil
}
