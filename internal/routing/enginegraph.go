package routing

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/packet"
	"repro/internal/topology"
)

// engineGraph is the struct-of-arrays switch-level view of a topology
// that every route search runs on: the Table builds, the engines-study
// certificate (CertifyEngine), the recovery probe routes and the
// route-set statistics. Each search runs once per *source* switch over
// int-indexed state arrays and reconstructs every destination's path
// from the shared parent tree. Tables rebuilt from one another share
// their graph: its topology view is immutable once built, and its one
// search slot is guarded by a mutex.
//
// States are (switch, up*/down* phase, lane) triples encoded as
// (switchIndex*2+phase)*lanes+lane, with phase 0 = "no down hop taken
// yet" and phase 1 = "downed" (only further down hops are legal); a
// single-lane search's states are switchIndex*2+phase.
type engineGraph struct {
	t   *topology.Topology
	ud  *topology.UpDown
	sws []topology.NodeID // switch index -> node id
	// sidx maps node id -> switch index (-1 for hosts).
	sidx []int32
	// CSR adjacency over non-loopback switch-switch links, per switch
	// in the deterministic (far node id, link id) order of
	// Topology.SwitchNeighbors.
	eOff  []int32
	eTo   []int32 // neighbour switch index
	eLink []int32 // link id
	eDown []bool  // true when the traversal is a down hop under ud
	// hostPorts[si] lists the switch's host-facing ports in port order
	// (loopback-free by construction: hosts have one port).
	hostPorts [][]uint8
	// hostLo and hostSpan bound the host NodeIDs: every host h has
	// 0 <= h-hostLo < hostSpan. Every table over the graph spans them.
	hostLo   topology.NodeID
	hostSpan int
	// deliver[h-hostLo] is the port of host h's switch that h is
	// cabled to: the last byte of every route into h.
	deliver []uint8

	// mu guards slot, the search every table over this graph reads its
	// switch paths from. One slot per graph, not per table, keeps the
	// many long-lived lazy tables of a gossip run from each holding a
	// search tree.
	mu   sync.Mutex
	slot searchSlot
}

func newEngineGraph(t *topology.Topology, ud *topology.UpDown) (*engineGraph, error) {
	g := &engineGraph{t: t, ud: ud, slot: searchSlot{src: -1}}
	g.hostLo, g.hostSpan = hostBounds(t)
	g.sidx = make([]int32, t.NumNodes())
	for i := range g.sidx {
		g.sidx[i] = -1
	}
	g.sws = t.Switches()
	for si, sw := range g.sws {
		g.sidx[sw] = int32(si)
	}
	g.eOff = make([]int32, len(g.sws)+1)
	g.hostPorts = make([][]uint8, len(g.sws))
	edges := 0
	for _, sw := range g.sws {
		edges += len(t.SwitchNeighbors(sw))
	}
	g.eTo = make([]int32, 0, edges)
	g.eLink = make([]int32, 0, edges)
	g.eDown = make([]bool, 0, edges)
	// One buffer holds every switch's host ports, then deliver.
	hostPorts := 0
	for _, sw := range g.sws {
		for port := 0; port < t.Node(sw).Ports; port++ {
			if l := t.LinkAt(sw, port); l != nil && t.Node(l.Other(sw)).Kind == topology.KindHost {
				hostPorts++
			}
		}
	}
	flat := make([]uint8, hostPorts, hostPorts+g.hostSpan)
	g.deliver = flat[hostPorts : hostPorts+g.hostSpan]
	flat = flat[:0]
	for si, sw := range g.sws {
		g.eOff[si] = int32(len(g.eTo))
		for _, nb := range t.SwitchNeighbors(sw) {
			port := nb.Link.PortAt(sw)
			if err := checkPort(sw, port); err != nil {
				return nil, err
			}
			g.eTo = append(g.eTo, g.sidx[nb.Node])
			g.eLink = append(g.eLink, int32(nb.Link.ID))
			g.eDown = append(g.eDown, ud.DirectionOf(nb.Link, sw) == topology.Down)
		}
		start := len(flat)
		for port := 0; port < t.Node(sw).Ports; port++ {
			l := t.LinkAt(sw, port)
			if l == nil || t.Node(l.Other(sw)).Kind != topology.KindHost {
				continue
			}
			if err := checkPort(sw, port); err != nil {
				return nil, err
			}
			flat = append(flat, uint8(port))
			g.deliver[l.Other(sw)-g.hostLo] = uint8(port)
		}
		if len(flat) > start {
			g.hostPorts[si] = flat[start:len(flat):len(flat)]
		}
	}
	g.eOff[len(g.sws)] = int32(len(g.eTo))
	return g, nil
}

// checkPort rejects a switch port a wire header cannot select: route
// bytes from packet.VCTag up are markers, so a port byte of that value
// would read as one.
func checkPort(sw topology.NodeID, port int) error {
	if port >= int(packet.VCTag) {
		return fmt.Errorf("routing: switch %d port %d is not addressable: route headers select ports below %d", sw, port, packet.VCTag)
	}
	return nil
}

// mustGraph is newEngineGraph for the callers without an error
// return. Its only error is a switch port beyond the wire header's
// reach, which no route search can serve.
func mustGraph(t *topology.Topology, ud *topology.UpDown) *engineGraph {
	g, err := newEngineGraph(t, ud)
	if err != nil {
		panic(err)
	}
	return g
}

// hostBounds returns the lowest host NodeID of t and the span from it
// to the highest one.
func hostBounds(t *topology.Topology) (topology.NodeID, int) {
	lo, hi := 0, t.NumNodes()-1
	for lo <= hi && t.Node(topology.NodeID(lo)).Kind != topology.KindHost {
		lo++
	}
	for hi >= lo && t.Node(topology.NodeID(hi)).Kind != topology.KindHost {
		hi--
	}
	return topology.NodeID(lo), hi - lo + 1
}

// liveHostPorts makes sl.eject hold, per switch index, the host-facing
// ports whose hosts survive the exclusion set — the candidates for
// in-transit ejection. With a nil avoid it is hostPorts itself;
// otherwise the lists are cut from the slot's reusable flat buffer.
func (g *engineGraph) liveHostPorts(avoid *Avoid, sl *searchSlot) {
	if avoid == nil {
		sl.eject = g.hostPorts
		return
	}
	if len(sl.ejectBy) != len(g.sws) {
		n := 0
		for _, ports := range g.hostPorts {
			n += len(ports)
		}
		sl.ejectBy, sl.ejectPorts = make([][]uint8, len(g.sws)), make([]uint8, 0, n)
	}
	flat := sl.ejectPorts[:0]
	for si, ports := range g.hostPorts {
		sw, start := g.sws[si], len(flat)
		for _, p := range ports {
			h := g.t.LinkAt(sw, int(p)).Other(sw)
			if !avoid.hostDead(g.t, h) {
				flat = append(flat, p)
			}
		}
		sl.ejectBy[si] = flat[start:len(flat):len(flat)]
	}
	sl.ejectPorts, sl.eject = flat, sl.ejectBy
}

// search is one route computation over an engine graph: a per-source
// search and the goal rule that reads each destination's state out of
// it. Every engine is one search; it is a
// comparable value, and the graph's search slot is keyed by it.
type search struct {
	// dijkstra selects the lane-aware in-transit Dijkstra; otherwise
	// the search is the up*/down*-legal BFS.
	dijkstra bool
	// layers is the number of BFS trees per source, each with the
	// adjacency rotated by its index; a pair reads the tree pairLayer
	// assigns it. It is 1 for every search but the layered engine's.
	layers uint8
	// lanes is the virtual-lane count of the search's states (1 for
	// the BFS).
	lanes uint8
	// itb lets the Dijkstra reset through an in-transit buffer at a
	// switch with a live host.
	itb bool
	// first is the goal rule: a destination's goal is the state the
	// search reached its switch in first, the state the mapper's
	// per-pair search stops at. Otherwise it is the cheapest reached
	// state, ties to phase 0 and lower lanes.
	first bool
}

// searchSlot is the last search run over a graph, keyed by the search,
// the exclusion set and the source switch, with its reusable buffers.
// The host-major build order therefore runs one search per source.
type searchSlot struct {
	s     search
	avoid *Avoid
	src   int32 // source switch index; -1 before the first search
	trees []searchTree
	heap  []itbHeapEntry
	// buf is the BFS queue during a search and the walker's path
	// after it; a path visits a state at most once, so neither
	// outgrows the state count.
	buf []int32
	// eject holds, per switch, the host ports live under avoid: where
	// the Dijkstra may reset. Under an exclusion set it is ejectBy,
	// whose lists share the flat ejectPorts.
	eject      [][]uint8
	ejectBy    [][]uint8
	ejectPorts []uint8
}

// run makes the slot hold search s from source switch si under avoid.
func (sl *searchSlot) run(g *engineGraph, s search, avoid *Avoid, si int32) {
	if sl.src == si && sl.s == s && sl.avoid == avoid {
		return
	}
	states := 2 * len(g.sws) * int(s.lanes)
	if len(sl.trees) != int(s.layers) || len(sl.trees[0].dist) != states {
		sl.trees = make([]searchTree, s.layers)
		for i := range sl.trees {
			sl.trees[i] = newSearchTree(states)
		}
		sl.buf = make([]int32, 0, states)
	}
	if sl.eject == nil || sl.avoid != avoid {
		g.liveHostPorts(avoid, sl)
	}
	if s.dijkstra {
		sl.heap = g.dijkstra(s, si, avoid, sl.eject, &sl.trees[0], sl.heap)
	} else {
		for layer := range sl.trees {
			g.legalBFS(si, layer, avoid, &sl.trees[layer], sl.buf)
		}
	}
	sl.s, sl.avoid, sl.src = s, avoid, si
}

// goal returns the tree and the goal state of destination switch di
// under the slot's search, or -1 when di is unreachable.
func (sl *searchSlot) goal(di int32) (*searchTree, int32) {
	st := &sl.trees[pairLayer(int(sl.src), int(di), int(sl.s.layers))]
	if sl.s.first {
		return st, st.goal[di]
	}
	L := int32(sl.s.lanes)
	best, bestD := int32(-1), distUnreached
	for ph := int32(0); ph < 2; ph++ {
		for lane := int32(0); lane < L; lane++ {
			if s := (di*2+ph)*L + lane; st.dist[s] < bestD {
				best, bestD = s, st.dist[s]
			}
		}
	}
	return st, best
}

// errNoPath reports a switch pair the search cannot connect under the
// exclusion set. It is a sentinel, so a lazy Lookup of a partitioned
// pair allocates nothing.
var errNoPath = errors.New("routing: no switch path under the exclusion set")

// path is the switch-pair search of s over g under avoid, the one every
// table runs. It searches in the graph's slot, under its mutex.
func (g *engineGraph) path(s search, avoid *Avoid, srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
	si, di := g.sidx[srcSw], g.sidx[dstSw]
	if si < 0 || di < 0 {
		return nil, nil, nil, fmt.Errorf("routing: %d->%d is not a switch pair", srcSw, dstSw)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sl := &g.slot
	sl.run(g, s, avoid, si)
	st, goal := sl.goal(di)
	if goal < 0 {
		return nil, nil, nil, errNoPath
	}
	sl.buf = st.walk(goal, sl.buf)
	trav, itbBefore, lanes := g.traversals(st, sl.buf, int32(s.lanes))
	return trav, itbBefore, lanes, nil
}

// searchTree holds one source's search result: per state, the best
// distance and the parent pointers to reconstruct paths. parentEdge is
// the CSR edge index taken into the state, edgeReset for the zero-hop
// in-transit reset (phase 1 -> phase 0, lane 0, at the same switch),
// edgeBump for the zero-hop lane bump, or edgeNone for unreached
// states and the start. goal holds, per switch index, the state the
// search reached the switch in first (-1 while unreached): the first
// one settled by the Dijkstra, the first one discovered by legalBFS.
type searchTree struct {
	dist        []int64
	parentEdge  []int32
	parentState []int32
	goal        []int32
}

const (
	edgeNone  int32 = -1
	edgeReset int32 = -2
	edgeBump  int32 = -3
)

const distUnreached = int64(1) << 62

func newSearchTree(states int) searchTree {
	idx := make([]int32, 2*states+states/2)
	st := searchTree{
		dist:        make([]int64, states),
		parentEdge:  idx[:states:states],
		parentState: idx[states : 2*states : 2*states],
		goal:        idx[2*states:],
	}
	st.reset()
	return st
}

func (st *searchTree) reset() {
	for i := range st.dist {
		st.dist[i] = distUnreached
		st.parentEdge[i] = edgeNone
		st.parentState[i] = edgeNone
	}
	for i := range st.goal {
		st.goal[i] = -1
	}
}

// legalBFS computes shortest up*/down*-legal paths from source switch
// src to every state. rot rotates the adjacency iteration order, which
// changes only the tie-break among equal-length paths: rotating it per
// layer is how the layered engine derives link-disjoint-ish path
// diversity from one deterministic search. avoid excludes failed
// links. With rot 0 the discovery order is the mapper's: FIFO over
// states, neighbours in SwitchNeighbors order, so st.goal holds the
// state a per-pair search for each destination would have stopped at.
func (g *engineGraph) legalBFS(src int32, rot int, avoid *Avoid, st *searchTree, queue []int32) {
	st.reset()
	start := src * 2 // phase 0
	st.dist[start] = 0
	st.goal[src] = start
	queue = append(queue[:0], start)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		si, ph := cur/2, cur%2
		deg := int(g.eOff[si+1] - g.eOff[si])
		for i := 0; i < deg; i++ {
			e := int(g.eOff[si]) + (i+rot)%deg
			if !g.eDown[e] && ph == 1 {
				continue // up after down is illegal
			}
			if avoid.avoidsLink(int(g.eLink[e])) {
				continue
			}
			next := g.eTo[int(e)] * 2
			if g.eDown[e] {
				next++
			}
			if st.dist[next] != distUnreached {
				continue
			}
			st.dist[next] = st.dist[cur] + 1
			st.parentEdge[next] = int32(e)
			st.parentState[next] = cur
			if st.goal[next/2] < 0 {
				st.goal[next/2] = next
			}
			queue = append(queue, next)
		}
	}
}

// plainBFS computes unrestricted shortest distances (minimal hops,
// ignoring the orientation and faults) from src to every switch, for
// the minimality statistics; dist is indexed by switch index, not
// state.
func (g *engineGraph) plainBFS(src int32, dist []int32, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for len(queue) > 0 {
		si := queue[0]
		queue = queue[1:]
		for e := g.eOff[si]; e < g.eOff[si+1]; e++ {
			to := g.eTo[e]
			if dist[to] >= 0 {
				continue
			}
			dist[to] = dist[si] + 1
			queue = append(queue, to)
		}
	}
}

// itbHeapEntry is one (cost, state) pair of the slice-backed binary
// min-heap the Dijkstra runs on. The heap is allocation-free across
// sources when the backing slice is reused.
type itbHeapEntry struct {
	cost  int64
	state int32
}

// Lexicographic route cost: hops dominate, then in-transit buffers,
// then lane bumps — the cheapest repair is always preferred and a
// repair is never bought with extra hops unless no minimal path can
// be repaired at all.
const (
	costHop  = int64(1) << 40
	costITB  = int64(1) << 20
	costBump = int64(1)
)

func heapPush(h []itbHeapEntry, e itbHeapEntry) []itbHeapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cost <= h[i].cost {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []itbHeapEntry) (itbHeapEntry, []itbHeapEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].cost < h[small].cost {
			small = l
		}
		if r < len(h) && h[r].cost < h[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// dijkstra runs the lane-aware in-transit Dijkstra of s from source
// switch src over states (switch, phase, lane) encoded as
// (si*2+ph)*L+lane. Hop edges keep the lane and cost costHop. At phase
// "downed" a bump edge moves to (up-ok, lane+1) for costBump and, with
// s.itb where the switch has a live host in eject, a reset edge moves
// to (up-ok, lane 0) for costITB. st.goal records each switch's first
// settled state. Relaxation is strict and the bump and reset edges are
// tried before the CSR edges, so every pop up to a destination's first
// one is the same pop a single-destination run would make, and st.goal
// is the state that run would stop at. It returns the heap for reuse.
func (g *engineGraph) dijkstra(s search, src int32, avoid *Avoid, eject [][]uint8, st *searchTree, heap []itbHeapEntry) []itbHeapEntry {
	L := int32(s.lanes)
	st.reset()
	start := (src * 2) * L // phase 0, lane 0
	st.dist[start] = 0
	heap = heap[:0]
	heap = heapPush(heap, itbHeapEntry{0, start})
	relax := func(next int32, c int64, edge, cur int32) {
		if c < st.dist[next] {
			st.dist[next] = c
			st.parentEdge[next] = edge
			st.parentState[next] = cur
			heap = heapPush(heap, itbHeapEntry{c, next})
		}
	}
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
		if st.goal[si] < 0 {
			st.goal[si] = cur
		}
		base := st.dist[cur]
		if ph == 1 {
			if lane+1 < L {
				relax((si*2)*L+lane+1, base+costBump, edgeBump, cur)
			}
			if s.itb && len(eject[si]) > 0 {
				relax((si*2)*L, base+costITB, edgeReset, cur)
			}
		}
		for e := g.eOff[si]; e < g.eOff[si+1]; e++ {
			if !g.eDown[e] && ph == 1 {
				continue // up after down needs a repair first
			}
			if avoid.avoidsLink(int(g.eLink[e])) {
				continue
			}
			next := g.eTo[e] * 2
			if g.eDown[e] {
				next++
			}
			relax(next*L+lane, base+costHop, e, cur)
		}
	}
	return heap
}

// walk reads the path from the tree's source to goal: the states its
// steps lead to, in source-to-goal order, reusing buf. The step into
// each state is its parentEdge: a CSR hop edge, edgeReset or edgeBump.
func (st *searchTree) walk(goal int32, buf []int32) []int32 {
	buf = buf[:0]
	for cur := goal; st.parentEdge[cur] != edgeNone; cur = st.parentState[cur] {
		buf = append(buf, cur)
	}
	slices.Reverse(buf)
	return buf
}

// traversals returns a walked path of an L-lane search in the form the
// Table assembler consumes: the switch traversals, the indices before
// which an in-transit reset happens, and, when L > 1, each traversal's
// lane (nil otherwise: everything rides lane 0). The first two are nil
// when empty.
func (g *engineGraph) traversals(st *searchTree, path []int32, L int32) ([]Traversal, []int, []uint8) {
	hops, resets := 0, 0
	for _, cur := range path {
		switch st.parentEdge[cur] {
		case edgeReset:
			resets++
		case edgeBump:
		default:
			hops++
		}
	}
	var trav []Traversal
	var itbBefore []int
	var lanes []uint8
	if hops > 0 {
		trav = make([]Traversal, 0, hops)
	}
	if resets > 0 {
		itbBefore = make([]int, 0, resets)
	}
	if L > 1 {
		lanes = make([]uint8, 0, hops)
	}
	for _, cur := range path {
		switch e := st.parentEdge[cur]; e {
		case edgeReset:
			itbBefore = append(itbBefore, len(trav))
		case edgeBump:
		default:
			trav = append(trav, Traversal{Link: g.t.Link(int(g.eLink[e])), From: g.sws[st.parentState[cur]/L/2]})
			if L > 1 {
				lanes = append(lanes, uint8(cur%L))
			}
		}
	}
	return trav, itbBefore, lanes
}
