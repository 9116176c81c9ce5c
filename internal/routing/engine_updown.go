package routing

import (
	"repro/internal/topology"
)

// UpDownEngine routes over one up*/down* orientation, as the Myrinet
// mapper does. The paper's two configurations are its two values:
//
//   - UpDownRouting is stock Myrinet: shortest up*/down*-legal routes.
//   - ITBRouting is the paper's mechanism, registered as "updown-itb":
//     minimal routes in which every forbidden down->up transition is
//     repaired by an in-transit buffer (ejection to a host attached to
//     the turn switch and re-injection as a fresh packet).
//
// Both run one search per source over the stock BFS orientation
// unless DFS or Root pins another one. Deadlock freedom follows from
// each segment being legal under the one orientation and each
// ejection consuming the packet from the network.
//
// The engine is used by pointer: *UpDownEngine implements Engine, so
// handing one to an Engine costs no allocation. UpDownRouting and
// ITBRouting are shared; build a new value rather than change their
// fields.
type UpDownEngine struct {
	// ITB repairs forbidden turns with in-transit buffers; without it
	// every route is legal end to end.
	ITB bool
	// DFS selects the depth-first orientation (the "optimized routing
	// scheme" of the companion studies) instead of the stock
	// breadth-first one.
	DFS bool
	// Root pins the spanning-tree root; nil elects the orientation's
	// own (the lowest-id switch for BFS, the highest-degree one for
	// DFS).
	Root *topology.NodeID
}

// The paper's two routings over the stock orientation.
var (
	UpDownRouting = &UpDownEngine{}
	ITBRouting    = &UpDownEngine{ITB: true}
)

// Name implements Engine.
func (e *UpDownEngine) Name() string {
	if e.ITB {
		return "updown-itb"
	}
	return "updown"
}

// String names the routing in study tables.
func (e *UpDownEngine) String() string {
	if e.ITB {
		return "up*/down* + ITB"
	}
	return "up*/down*"
}

// Description implements Engine.
func (e *UpDownEngine) Description() string {
	if e.ITB {
		return "minimal paths over BFS up*/down*, violations repaired by in-transit buffers (the paper's mechanism)"
	}
	return "shortest up*/down*-legal paths (stock Myrinet)"
}

// Orientation implements Engine: the stock BFS orientation unless DFS
// or Root pins another.
func (e *UpDownEngine) Orientation(t *topology.Topology) *topology.UpDown {
	switch {
	case e.DFS && e.Root != nil:
		return topology.BuildUpDownDFSFrom(t, *e.Root)
	case e.DFS:
		return topology.BuildUpDownDFS(t)
	case e.Root != nil:
		return topology.BuildUpDownFrom(t, *e.Root)
	}
	return topology.BuildUpDown(t)
}

// BuildTable implements Engine.
func (e *UpDownEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	return buildTable(e, t, avoid)
}

// Lanes implements Engine: the paper's mechanism needs no virtual
// channels — that is its whole point.
func (*UpDownEngine) Lanes() int { return 1 }

// search implements Engine: with ITB, the in-transit Dijkstra,
// lexicographically minimising (hops, ITBs); without, the legal BFS.
// Each destination's path is read from the state the search reached
// it in first, the state the mapper's per-pair search stops at.
//
// ITBRouting needs no separate up*/down* fallback under an exclusion
// set: the in-transit search's graph contains every legal path, so
// where no live in-transit host repairs a minimal path it returns the
// shortest route the live hosts and links still allow, which is a
// legal route when no reset survives on it.
func (e *UpDownEngine) search() search {
	if e.ITB {
		return search{dijkstra: true, layers: 1, lanes: 1, itb: true, first: true}
	}
	return search{layers: 1, lanes: 1, first: true}
}
