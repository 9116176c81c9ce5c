package routing

import (
	"container/heap"
	"fmt"

	"repro/internal/topology"
)

// The mapper's original per-pair switch searches, kept verbatim (up to
// names) as the oracle the per-source searches are checked against:
// one map-keyed BFS or Dijkstra per switch pair, stopping at the
// destination.

type oraclePhase int

const (
	oracleUpOK   oraclePhase = iota // no down hop taken yet: up and down legal
	oracleDowned                    // a down hop taken: only down legal
)

type oracleState struct {
	sw topology.NodeID
	ph oraclePhase
}

type oracleStep struct {
	prev oracleState
	link *topology.Link // nil at the source
	itb  bool           // an ITB reset happened at prev.sw before this hop
}

// oracleSearchPath is a BFS over (switch, phase) states. With ud == nil
// the phase is ignored and the search is a plain shortest path.
func oracleSearchPath(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID, avoid *Avoid) ([]Traversal, error) {
	if t.Node(src).Kind != topology.KindSwitch || t.Node(dst).Kind != topology.KindSwitch {
		return nil, fmt.Errorf("oracle: path endpoints must be switches")
	}
	if src == dst {
		return nil, nil
	}
	start := oracleState{sw: src, ph: oracleUpOK}
	parent := map[oracleState]oracleStep{start: {}}
	queue := []oracleState{start}
	var goal *oracleState
	for len(queue) > 0 && goal == nil {
		st := queue[0]
		queue = queue[1:]
		for _, nb := range t.SwitchNeighbors(st.sw) {
			if avoid.avoidsLink(nb.Link.ID) {
				continue
			}
			next := oracleState{sw: nb.Node, ph: st.ph}
			if ud != nil {
				dir := ud.DirectionOf(nb.Link, st.sw)
				var prev *topology.Direction
				if st.ph == oracleDowned {
					d := topology.Down
					prev = &d
				}
				if !topology.LegalTransition(prev, dir) {
					continue
				}
				if dir == topology.Down {
					next.ph = oracleDowned
				}
			}
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = oracleStep{prev: st, link: nb.Link}
			if next.sw == dst {
				g := next
				goal = &g
				break
			}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("oracle: no path from switch %d to %d", src, dst)
	}
	var rev []Traversal
	for st := *goal; st != start; st = parent[st].prev {
		step := parent[st]
		rev = append(rev, Traversal{Link: step.link, From: step.prev.sw})
	}
	trav := make([]Traversal, len(rev))
	for i := range rev {
		trav[i] = rev[len(rev)-1-i]
	}
	return trav, nil
}

// oracleMinimalSwitchPath is a shortest switch path ignoring the
// orientation.
func oracleMinimalSwitchPath(t *topology.Topology, src, dst topology.NodeID) []Traversal {
	trav, err := oracleSearchPath(t, nil, src, dst, nil)
	if err != nil {
		panic(err)
	}
	return trav
}

type oracleNode struct {
	st   oracleState
	cost int64
	idx  int
}

type oracleHeap []*oracleNode

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *oracleHeap) Push(x any)        { n := x.(*oracleNode); n.idx = len(*h); *h = append(*h, n) }
func (h *oracleHeap) Pop() any          { o := *h; n := o[len(o)-1]; *h = o[:len(o)-1]; return n }

// oracleSearchPathITB is the per-pair in-transit Dijkstra: a zero-hop
// reset edge at every switch with a live host, lexicographic (hops,
// ITBs) cost, first pop of the destination wins.
func oracleSearchPathITB(t *topology.Topology, ud *topology.UpDown, src, dst topology.NodeID, avoid *Avoid) ([]Traversal, []int, error) {
	if t.Node(src).Kind != topology.KindSwitch || t.Node(dst).Kind != topology.KindSwitch {
		return nil, nil, fmt.Errorf("oracle: path endpoints must be switches")
	}
	if src == dst {
		return nil, nil, nil
	}
	start := oracleState{sw: src, ph: oracleUpOK}
	dist := map[oracleState]int64{start: 0}
	parent := map[oracleState]oracleStep{start: {}}
	h := &oracleHeap{}
	heap.Push(h, &oracleNode{st: start, cost: 0})
	done := map[oracleState]bool{}
	for h.Len() > 0 {
		n := heap.Pop(h).(*oracleNode)
		if done[n.st] {
			continue
		}
		done[n.st] = true
		if n.st.sw == dst {
			return oracleReconstructITB(parent, start, n.st)
		}
		st := n.st
		base := dist[st]
		relax := func(next oracleState, cost int64, step oracleStep) {
			if d, ok := dist[next]; ok && d <= cost {
				return
			}
			dist[next] = cost
			parent[next] = step
			heap.Push(h, &oracleNode{st: next, cost: cost})
		}
		if st.ph == oracleDowned && len(liveHostsAt(t, st.sw, avoid)) > 0 {
			relax(oracleState{sw: st.sw, ph: oracleUpOK}, base+costITB,
				oracleStep{prev: st, itb: true})
		}
		for _, nb := range t.SwitchNeighbors(st.sw) {
			if avoid.avoidsLink(nb.Link.ID) {
				continue
			}
			dir := ud.DirectionOf(nb.Link, st.sw)
			if st.ph == oracleDowned && dir == topology.Up {
				continue
			}
			nextPh := st.ph
			if dir == topology.Down {
				nextPh = oracleDowned
			}
			relax(oracleState{sw: nb.Node, ph: nextPh}, base+costHop,
				oracleStep{prev: st, link: nb.Link})
		}
	}
	return nil, nil, fmt.Errorf("oracle: no ITB path from switch %d to %d", src, dst)
}

func oracleReconstructITB(parent map[oracleState]oracleStep, start, goal oracleState) ([]Traversal, []int, error) {
	type revStep struct {
		tr  Traversal
		itb bool
	}
	var rev []revStep
	for st := goal; st != start; {
		step := parent[st]
		if step.itb {
			rev = append(rev, revStep{itb: true})
		} else {
			rev = append(rev, revStep{tr: Traversal{Link: step.link, From: step.prev.sw}})
		}
		st = step.prev
	}
	var trav []Traversal
	var itbBefore []int
	for i := len(rev) - 1; i >= 0; i-- {
		if rev[i].itb {
			itbBefore = append(itbBefore, len(trav))
			continue
		}
		trav = append(trav, rev[i].tr)
	}
	return trav, itbBefore, nil
}

// oraclePathFunc is the mapper's original route selection as a
// pathFunc: up*/down* BFS, or with itb the in-transit Dijkstra falling
// back to the up*/down* BFS when it finds no path.
func oraclePathFunc(t *topology.Topology, ud *topology.UpDown, itb bool, avoid *Avoid) pathFunc {
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		if !itb {
			trav, err := oracleSearchPath(t, ud, srcSw, dstSw, avoid)
			return trav, nil, nil, err
		}
		trav, itbBefore, err := oracleSearchPathITB(t, ud, srcSw, dstSw, avoid)
		if err != nil {
			trav, err = oracleSearchPath(t, ud, srcSw, dstSw, avoid)
			itbBefore = nil
		}
		return trav, itbBefore, nil, err
	}
}
