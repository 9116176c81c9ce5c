package routing

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Algorithm selects how the mapper computes routes.
type Algorithm int

const (
	// UpDownRouting is stock Myrinet: shortest up*/down*-legal routes.
	UpDownRouting Algorithm = iota
	// ITBRouting is the paper's mechanism: minimal routes with
	// up*/down* violations repaired by in-transit buffers.
	ITBRouting
)

// String names the routing algorithm.
func (a Algorithm) String() string {
	if a == UpDownRouting {
		return "up*/down*"
	}
	return "up*/down* + ITB"
}

// Table holds the source routes between every ordered host pair, as
// the mapper would store them in each NIC's SRAM.
type Table struct {
	Algorithm Algorithm
	routes    map[[2]topology.NodeID]*Route
	// itbLoad counts in-transit assignments per host, used to balance
	// host selection at in-transit switches.
	itbLoad map[topology.NodeID]int
	// pathCache memoises switch-pair searches: all host pairs on the
	// same switch pair share one search (ITB host choice still varies
	// per route for balance).
	pathCache map[[2]topology.NodeID]cachedPath
	// avoid is the exclusion set the table was built around (nil when
	// built fault-free by BuildTable).
	avoid *Avoid
	// engine names the Engine that built the table ("" for the
	// Algorithm-selected entry points).
	engine string
	// graph is the switch graph the table's searches run on; tables
	// rebuilt from this one share it. pathFn is the switch-pair search
	// over it: the engine's, or algPathFunc's.
	graph  *engineGraph
	pathFn pathFunc
	// lazyFill, when non-nil, resolves Lookup misses on demand (tables
	// from RebuildAvoidingLazy); eager tables leave it nil.
	lazyFill *lazyRebuild
}

// Engine returns the name of the Engine that built the table, or ""
// for tables from the Algorithm-selected entry points.
func (tbl *Table) Engine() string { return tbl.engine }

type cachedPath struct {
	trav      []Traversal
	itbBefore []int
	// lanes is the virtual-channel lane of each traversal (nil means
	// everything rides lane 0; only lane-aware engines populate it).
	lanes []uint8
}

// newTable returns an empty table over graph g whose switch paths
// come from fn, or from the Algorithm-selected searches when fn is
// nil.
func newTable(g *engineGraph, alg Algorithm, avoid *Avoid, engine string, fn pathFunc) *Table {
	if fn == nil {
		fn = algPathFunc(g, alg, avoid)
	}
	return &Table{
		Algorithm: alg,
		routes:    make(map[[2]topology.NodeID]*Route),
		itbLoad:   make(map[topology.NodeID]int),
		pathCache: make(map[[2]topology.NodeID]cachedPath),
		avoid:     avoid,
		engine:    engine,
		graph:     g,
		pathFn:    fn,
	}
}

// graphFor returns prev's switch graph when prev was built over the
// same topology and orientation, and a new graph otherwise.
func graphFor(prev *Table, t *topology.Topology, ud *topology.UpDown) (*engineGraph, error) {
	if prev != nil && prev.graph != nil && prev.graph.t == t && prev.graph.ud == ud {
		return prev.graph, nil
	}
	return newEngineGraph(t, ud)
}

// algPathFunc is the switch-pair search of the Algorithm-selected
// tables over g. ITBRouting takes each destination's first settled
// state of the in-transit Dijkstra, UpDownRouting the first discovered
// state of the legal BFS. Those are exactly the states a search for
// that one destination stops at, so the paths are the per-pair
// searches'.
//
// ITBRouting needs no separate up*/down* fallback under an exclusion
// set: the in-transit search's graph contains every legal path, so
// where no live in-transit host repairs a minimal path it returns the
// shortest route the live hosts and links still allow, which is a
// legal route when no reset survives on it.
func algPathFunc(g *engineGraph, alg Algorithm, avoid *Avoid) pathFunc {
	return func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error) {
		si, di := g.sidx[srcSw], g.sidx[dstSw]
		if si < 0 || di < 0 {
			return nil, nil, nil, fmt.Errorf("routing: %d->%d is not a switch pair", srcSw, dstSw)
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		tree, err := g.searchFrom(alg, avoid, si)
		if err != nil {
			return nil, nil, nil, err
		}
		goal := tree.goal[di]
		if goal < 0 {
			return nil, nil, nil, fmt.Errorf("routing: no path from switch %d to %d", srcSw, dstSw)
		}
		trav, itbBefore := g.traversalsTo(tree, goal)
		return trav, itbBefore, nil, nil
	}
}

// BuildTable computes routes for all ordered host pairs.
func BuildTable(t *topology.Topology, ud *topology.UpDown, alg Algorithm) (*Table, error) {
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	tbl := newTable(g, alg, nil, "", nil)
	if err := tbl.routeAll(t, true); err != nil {
		return nil, err
	}
	return tbl, nil
}

// routeAll routes every ordered pair of live hosts in host-major
// order, the order the in-transit load balance is defined by. A pair
// that does not route fails the build when strict and is omitted
// otherwise.
func (tbl *Table) routeAll(t *topology.Topology, strict bool) error {
	hosts := t.Hosts()
	for _, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			r, err := tbl.buildRoute(t, src, dst)
			if err != nil {
				if strict {
					return err
				}
				continue
			}
			tbl.routes[[2]topology.NodeID{src, dst}] = r
		}
	}
	return nil
}

// Lookup returns the route from src to dst. On a lazily rebuilt
// table a miss resolves (and memoizes) the pair on demand.
func (tbl *Table) Lookup(src, dst topology.NodeID) (*Route, bool) {
	r, ok := tbl.routes[[2]topology.NodeID{src, dst}]
	if ok || tbl.lazyFill == nil {
		return r, ok
	}
	return tbl.resolveLazy(src, dst)
}

// materialize forces every unresolved pair of a lazily rebuilt table
// so whole-table accessors see the complete route set; eager tables
// are untouched.
func (tbl *Table) materialize() {
	if tbl.lazyFill == nil {
		return
	}
	hosts := tbl.lazyFill.topo.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				tbl.Lookup(src, dst)
			}
		}
	}
	tbl.lazyFill = nil
}

// Routes returns every route in the table (iteration order is not
// specified; callers that need determinism should iterate host pairs).
func (tbl *Table) Routes() []*Route {
	tbl.materialize()
	out := make([]*Route, 0, len(tbl.routes))
	for _, r := range tbl.routes {
		out = append(out, r)
	}
	return out
}

// Len returns the number of routes.
func (tbl *Table) Len() int {
	tbl.materialize()
	return len(tbl.routes)
}

// buildRoute assembles a host-to-host Route from a switch path.
func (tbl *Table) buildRoute(t *topology.Topology, src, dst topology.NodeID) (*Route, error) {
	srcSw, ok := t.SwitchOf(src)
	if !ok {
		return nil, fmt.Errorf("routing: host %d not cabled", src)
	}
	dstSw, ok := t.SwitchOf(dst)
	if !ok {
		return nil, fmt.Errorf("routing: host %d not cabled", dst)
	}
	key := [2]topology.NodeID{srcSw, dstSw}
	cp, cached := tbl.pathCache[key]
	if !cached {
		var err error
		cp.trav, cp.itbBefore, cp.lanes, err = tbl.pathFn(srcSw, dstSw)
		if err != nil {
			return nil, err
		}
		tbl.pathCache[key] = cp
	}
	return tbl.assemble(t, src, dst, srcSw, cp.trav, cp.itbBefore, cp.lanes)
}

// assemble converts a switch traversal plus ITB reset positions (and,
// for lane-aware engines, per-traversal lane assignments) into a
// Route with port bytes, in-transit host choices, and link path. Lane
// changes embed as [VCTag][lane] pairs in the segment bytes, emitted
// exactly where the wire lane (what the fabric infers while consuming
// the route: lane 0 at every injection, then the last selected lane)
// diverges from the lane the path wants for the next hop.
func (tbl *Table) assemble(t *topology.Topology, src, dst, srcSw topology.NodeID, trav []Traversal, itbBefore []int, lanes []uint8) (*Route, error) {
	r := &Route{Src: src, Dst: dst}
	hostUp := t.LinkAt(src, 0)   // src host -> its switch
	hostDown := t.LinkAt(dst, 0) // last switch -> dst host
	laned := lanes != nil
	wireLane := uint8(0)

	r.LinkPath = append(r.LinkPath, Traversal{Link: hostUp, From: src})
	if laned {
		// Injections always enter on lane 0.
		r.Lanes = append(r.Lanes, 0)
	}

	// Split trav at the itbBefore indices.
	nextITB := 0
	cur := []byte{}
	curSw := srcSw
	r.SwitchPath = append(r.SwitchPath, curSw)
	flushSegment := func(itbSwitch topology.NodeID) error {
		// Eject into a live host of itbSwitch: pick the least-loaded
		// host (deterministic tie-break by id).
		hosts := liveHostsAt(t, itbSwitch, tbl.avoid)
		if len(hosts) == 0 {
			return fmt.Errorf("routing: ITB needed at switch %d which has no live hosts", itbSwitch)
		}
		best := hosts[0]
		for _, h := range hosts[1:] {
			if tbl.itbLoad[h] < tbl.itbLoad[best] {
				best = h
			}
		}
		tbl.itbLoad[best]++
		hl := t.LinkAt(best, 0)
		// Final port byte of this segment delivers into the ITB host.
		cur = append(cur, byte(hl.PortAt(itbSwitch)))
		r.LinkPath = append(r.LinkPath, Traversal{Link: hl, From: itbSwitch})
		r.Segments = append(r.Segments, cur)
		r.ITBHosts = append(r.ITBHosts, best)
		// Re-injection back into the same switch.
		r.LinkPath = append(r.LinkPath, Traversal{Link: hl, From: best})
		// The re-injected packet crosses the switch again.
		r.SwitchPath = append(r.SwitchPath, itbSwitch)
		if laned {
			// The ejection rides whatever lane the packet was on; the
			// re-injection is a fresh lane-0 entry.
			r.Lanes = append(r.Lanes, wireLane, 0)
			wireLane = 0
		}
		cur = []byte{}
		return nil
	}
	for i, tr := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			if err := flushSegment(curSw); err != nil {
				return nil, err
			}
			nextITB++
		}
		if laned && lanes[i] != wireLane {
			cur = append(cur, packet.VCTag, lanes[i])
			wireLane = lanes[i]
		}
		cur = append(cur, byte(tr.Link.PortAt(tr.From)))
		r.LinkPath = append(r.LinkPath, tr)
		if laned {
			r.Lanes = append(r.Lanes, wireLane)
		}
		curSw = tr.To()
		r.SwitchPath = append(r.SwitchPath, curSw)
	}
	// Trailing resets (ITB at the destination switch) would be
	// pointless; the search never produces them, but guard anyway.
	for nextITB < len(itbBefore) {
		if err := flushSegment(curSw); err != nil {
			return nil, err
		}
		nextITB++
	}
	// Deliver into dst.
	cur = append(cur, byte(hostDown.PortAt(curSw)))
	r.Segments = append(r.Segments, cur)
	r.LinkPath = append(r.LinkPath, Traversal{Link: hostDown, From: curSw})
	if laned {
		// The delivery hop stays on the current lane.
		r.Lanes = append(r.Lanes, wireLane)
	}
	return r, nil
}
