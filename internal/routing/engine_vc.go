package routing

import (
	"fmt"

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
	// both mean a single lane (no bumps available).
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

func (e VCEscapeEngine) algorithm() Algorithm {
	if e.ITBRepair {
		return ITBRouting
	}
	return UpDownRouting
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

// edgeBump is the parent-edge sentinel for the zero-hop lane bump
// (phase downed, lane k -> phase up-ok, lane k+1 at the same switch).
const edgeBump int32 = -3

// Lexicographic route cost: hops dominate, then in-transit buffers,
// then lane bumps — the cheapest repair is always preferred and a
// repair is never bought with extra hops unless no minimal path can
// be repaired at all.
const (
	vcCostHop  = int64(1) << 40
	vcCostITB  = int64(1) << 20
	vcCostBump = int64(1)
)

// vcSearch runs the lane-aware Dijkstra from source switch src over
// states (switch, phase, lane) encoded as (si*2+ph)*L+lane. Hop edges
// keep the lane; at phase "downed" a bump edge moves to (up-ok,
// lane+1) and — with ITBRepair, where a live host exists — a reset
// edge moves to (up-ok, lane 0).
func (e VCEscapeEngine) vcSearch(g *engineGraph, src int32, avoid *Avoid, canReset []bool, st *searchTree, heap []itbHeapEntry) {
	L := int32(e.lanes())
	st.reset()
	start := (src * 2) * L // phase 0, lane 0
	st.dist[start] = 0
	heap = heap[:0]
	heap = heapPush(heap, itbHeapEntry{0, start})
	for len(heap) > 0 {
		var top itbHeapEntry
		top, heap = heapPop(heap)
		if top.cost > st.dist[top.state] {
			continue // stale entry
		}
		cur := top.state
		lane := cur % L
		sp := cur / L
		si, ph := sp/2, sp%2
		base := st.dist[cur]
		if ph == 1 {
			if lane+1 < L {
				next := (si*2)*L + lane + 1
				if c := base + vcCostBump; c < st.dist[next] {
					st.dist[next] = c
					st.parentEdge[next] = edgeBump
					st.parentState[next] = cur
					heap = heapPush(heap, itbHeapEntry{c, next})
				}
			}
			if e.ITBRepair && canReset[si] {
				next := (si * 2) * L // phase 0, lane 0
				if c := base + vcCostITB; c < st.dist[next] {
					st.dist[next] = c
					st.parentEdge[next] = edgeReset
					st.parentState[next] = cur
					heap = heapPush(heap, itbHeapEntry{c, next})
				}
			}
		}
		for ei := g.eOff[si]; ei < g.eOff[si+1]; ei++ {
			if !g.eDown[ei] && ph == 1 {
				continue // up after down needs a repair first
			}
			if avoid.avoidsLink(int(g.eLink[ei])) {
				continue
			}
			nsp := g.eTo[ei] * 2
			if g.eDown[ei] {
				nsp++
			}
			next := nsp*L + lane
			if c := base + vcCostHop; c < st.dist[next] {
				st.dist[next] = c
				st.parentEdge[next] = int32(ei)
				st.parentState[next] = cur
				heap = heapPush(heap, itbHeapEntry{c, next})
			}
		}
	}
}

// vcGoal returns the cheapest reached state of destination switch di
// (ties prefer phase 0 and lower lanes for determinism), or -1.
func vcGoal(st *searchTree, di, L int32) int32 {
	best := int32(-1)
	bestD := distUnreached
	for ph := int32(0); ph < 2; ph++ {
		for lane := int32(0); lane < L; lane++ {
			s := (di*2+ph)*L + lane
			if st.dist[s] < bestD {
				best, bestD = s, st.dist[s]
			}
		}
	}
	return best
}

// vcStep is one reversed reconstruction entry: a CSR hop edge (with
// the lane it rides), a lane bump, or an in-transit reset (with the
// switch it happens at).
type vcStep struct {
	edge int32 // CSR edge index, or edgeBump / edgeReset
	lane uint8 // lane of the state the step leads to
	sw   int32 // switch index of the step's target state
}

// vcRev collects the reversed step list from goal back to the source.
func vcRev(st *searchTree, goal, L int32, rev []vcStep) []vcStep {
	rev = rev[:0]
	for cur := goal; st.parentEdge[cur] != edgeNone; cur = st.parentState[cur] {
		rev = append(rev, vcStep{
			edge: st.parentEdge[cur],
			lane: uint8(cur % L),
			sw:   cur / L / 2,
		})
	}
	return rev
}

// vcPathFunc returns the engine's pathFunc: one lane-aware Dijkstra
// per source, cached for the host-major build order.
func (e VCEscapeEngine) vcPathFunc(g *engineGraph, avoid *Avoid) pathFunc {
	L := int32(e.lanes())
	st := newSearchTree(2 * len(g.sws) * int(L))
	heap := make([]itbHeapEntry, 0, 4*len(g.sws))
	canReset := make([]bool, len(g.sws))
	if e.ITBRepair {
		for i, ports := range g.liveHostPorts(avoid) {
			canReset[i] = len(ports) > 0
		}
	}
	var rev []vcStep
	lastSrc := int32(-1)
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		si, di := g.sidx[srcSw], g.sidx[dstSw]
		if si < 0 || di < 0 {
			return nil, nil, nil, fmt.Errorf("routing: %d->%d is not a switch pair", srcSw, dstSw)
		}
		if si != lastSrc {
			e.vcSearch(g, si, avoid, canReset, st, heap)
			lastSrc = si
		}
		goal := vcGoal(st, di, L)
		if goal < 0 {
			return nil, nil, nil, fmt.Errorf("routing: no repairable path from switch %d to %d", srcSw, dstSw)
		}
		rev = vcRev(st, goal, L, rev)
		var trav []Traversal
		var itbBefore []int
		lanes := []uint8{}
		for i := len(rev) - 1; i >= 0; i-- {
			s := rev[i]
			switch s.edge {
			case edgeReset:
				itbBefore = append(itbBefore, len(trav))
			case edgeBump:
				// The lane change surfaces as the next hop's lane.
			default:
				from := g.edgeFrom(s.edge)
				trav = append(trav, Traversal{Link: g.t.Link(int(g.eLink[s.edge])), From: g.sws[from]})
				lanes = append(lanes, s.lane)
			}
		}
		return trav, itbBefore, lanes, nil
	}
}

// BuildTable implements Engine.
func (e VCEscapeEngine) BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error) {
	tbl, _, err := e.RebuildAvoiding(nil, t, avoid)
	return tbl, err
}

// RebuildAvoiding implements Engine.
func (e VCEscapeEngine) RebuildAvoiding(prev *Table, t *topology.Topology, avoid *Avoid) (*Table, int, error) {
	return rebuildEngineTable(e, prev, t, e.algorithm(), avoid, func(g *engineGraph) pathFunc {
		return e.vcPathFunc(g, avoid)
	})
}

// CheckDeadlockFree implements Engine: the lane-aware channel
// dependency graph (channels are (link direction, lane) pairs) must
// be acyclic.
func (VCEscapeEngine) CheckDeadlockFree(tbl *Table) error {
	return CheckDeadlockFree(tbl.Routes())
}

// BuildCompact implements Engine: one lane-aware Dijkstra per source
// switch, paths encoded with stepVC lane markers (and, with
// ITBRepair, stepITB resets whose ejection host is chosen by
// (src+dst) rotation over the switch's live hosts).
func (e VCEscapeEngine) BuildCompact(t *topology.Topology, avoid *Avoid) (*CompactTable, error) {
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
	if e.ITBRepair {
		for i := range canReset {
			canReset[i] = len(eject[i]) > 0
		}
	}
	L := int32(e.lanes())
	s := len(g.sws)
	ct := &CompactTable{
		EngineName: e.Name(),
		t:          t,
		ud:         ud,
		avoid:      avoid,
		sws:        g.sws,
		sidx:       g.sidx,
		off:        make([]uint32, s*s+1),
		lanes:      int(L),
	}
	st := newSearchTree(2 * s * int(L))
	heap := make([]itbHeapEntry, 0, 4*s)
	var rev []vcStep
	for si := 0; si < s; si++ {
		e.vcSearch(g, int32(si), avoid, canReset, st, heap)
		for di := 0; di < s; di++ {
			ct.off[si*s+di] = uint32(len(ct.steps))
			if si == di {
				continue
			}
			goal := vcGoal(st, int32(di), L)
			if goal < 0 {
				if avoid == nil {
					return nil, fmt.Errorf("routing: engine %q: switch %d unreachable from %d", e.Name(), g.sws[di], g.sws[si])
				}
				continue
			}
			rev = vcRev(st, goal, L, rev)
			wire := uint8(0)
			for i := len(rev) - 1; i >= 0; i-- {
				step := rev[i]
				switch step.edge {
				case edgeReset:
					ports := eject[step.sw]
					if len(ports) == 0 {
						return nil, fmt.Errorf("routing: in-transit reset at switch %d which has no live hosts", g.sws[step.sw])
					}
					ct.steps = append(ct.steps, stepITB, ports[(si+di)%len(ports)])
					wire = 0 // the re-injection restarts on lane 0
				case edgeBump:
					// The bump surfaces as the next hop's stepVC marker.
				default:
					if step.lane != wire {
						ct.steps = append(ct.steps, stepVC, step.lane)
						wire = step.lane
					}
					ct.steps = append(ct.steps, g.ePort[step.edge])
				}
			}
		}
	}
	ct.off[s*s] = uint32(len(ct.steps))
	return ct, nil
}
