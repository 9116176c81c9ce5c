package routing

import (
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
	tbl, _, err := rebuildEngineTable(e, nil, t, avoid)
	return tbl, err
}

// RebuildAvoiding implements Engine.
func (e UpDownITBEngine) RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error) {
	return rebuildEngineTable(e, prev, t, avoid)
}

// Lanes implements Engine: the paper's mechanism needs no virtual
// channels — that is its whole point.
func (UpDownITBEngine) Lanes() int { return 1 }

// search implements Engine: ITBRouting's in-transit Dijkstra,
// lexicographically minimising (hops, ITBs), with each destination's
// path read from its first settled state.
func (UpDownITBEngine) search() search {
	s, _ := ITBRouting.search()
	return s
}
