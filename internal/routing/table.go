package routing

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// Table holds the source routes between every ordered host pair, as
// the mapper would store them in each NIC's SRAM.
//
// A route is stored in two parts. Everything its switch pair fixes —
// the header's port bytes, the in-transit split points and the lane
// tags — is a path record in the path store, once per switch pair and
// shared by every table rebuilt from this one. Each host pair holds an
// eight-byte, pointer-free record (pair) in its source's row: whether
// the pair is resolved and routed, which path it uses, and the
// ejection port of each in-transit host. Lookup returns a Route view of
// the two.
//
// A row is a []pair indexed by destination, allocated when the first
// pair out of that source is stored. A row spans the host NodeIDs only
// (index dst-hostLo), since only hosts are routed to. A NIC only ever
// reads its own host's row, and a table that one host reads (a gossip
// agent's lazily rebuilt table) holds that one row, so the row
// directory starts as one inline slot for the first source stored and
// becomes one slot per host when a second source stores.
//
// Every pair is routed by one resolver (resolve): an eager table
// resolves every live pair when it is built (fill), a lazy one
// resolves each pair on its first Lookup.
type Table struct {
	topo *topology.Topology
	// hostLo and hostSpan bound the host NodeIDs: every host h has
	// 0 <= h-hostLo < hostSpan.
	hostLo   topology.NodeID
	hostSpan int
	// rows is the row directory: rows[src-srcLo] is src's row, nil
	// while no pair out of src is stored. It is inline[:] (srcLo the
	// first source stored) until a second source stores, and then has
	// one slot per host (srcLo = hostLo).
	srcLo  topology.NodeID
	rows   [][]pair
	inline [1][]pair
	// n counts the routes stored (unroutable pairs excluded).
	n int
	// itbLoad counts in-transit assignments per host (index
	// h-hostLo), used to balance host selection at in-transit
	// switches. It is the count of each host over the in-transit hosts
	// of the stored routes, so it stays nil until the first in-transit
	// host choice needs it, and is then counted from the stored routes.
	itbLoad []int32
	// paths is the path store the table's pair records index.
	paths *pathStore
	// pathCache maps each switch pair the table has searched to the
	// index of the path its search gave: all host pairs on the same
	// switch pair share one search (the in-transit host choice still
	// varies per route for balance). nil until the first search, and
	// again once every pair is resolved.
	pathCache map[[2]topology.NodeID]uint32
	// avoid is the exclusion set the table was built around (nil when
	// built fault-free). It points at avoidSet, the table's own copy,
	// so the caller's set need not escape to the heap with the table.
	avoid    *Avoid
	avoidSet Avoid
	// engine is the Engine that built the table; its rebuilds keep it.
	engine Engine
	// graph is the switch graph the table's searches run on; tables
	// rebuilt from this one share it. search is the engine's search;
	// every switch pair is graph.path(search, avoid, ...), unless
	// pathFn, nil but in tests, stands in for it.
	graph  *engineGraph
	search search
	pathFn pathFunc
	// lazy makes Lookup resolve a miss on demand; it is cleared once
	// fill has resolved every pair. prev, when non-nil, is the table a
	// lazy rebuild adopts surviving routes from, and reused, when
	// non-nil, counts the adoptions.
	lazy   bool
	prev   *Table
	reused *uint64
}

// The resolver's failures are sentinels, so a lazy Lookup that misses
// allocates nothing.
var (
	errNotHost      = errors.New("routing: endpoint is not a host")
	errDeadEndpoint = errors.New("routing: endpoint dead under the exclusion set")
)

// Orientation returns the up*/down* orientation the table was routed
// over.
func (tbl *Table) Orientation() *topology.UpDown { return tbl.graph.ud }

// newTable returns an empty table of engine e over graph g, searching
// under the exclusion set avoid and storing its paths in paths, the
// store of the lineage it joins. With a nil paths the table starts a
// lineage, and its new store is allocated with it.
func newTable(g *engineGraph, e Engine, avoid *Avoid, paths *pathStore) *Table {
	var tbl *Table
	if paths == nil {
		root := &rootTable{paths: pathStore{g: g}}
		tbl, paths = &root.tbl, &root.paths
	} else {
		tbl = new(Table)
		paths.shared = true
	}
	*tbl = Table{topo: g.t, hostLo: g.hostLo, hostSpan: g.hostSpan, engine: e, graph: g, search: e.search(), paths: paths}
	if avoid != nil {
		tbl.avoidSet = *avoid
		tbl.avoid = &tbl.avoidSet
	}
	return tbl
}

// Avoids reports whether the table's exclusion set holds host h dead:
// marked failed, or cabled through a failed link. The table routes
// nothing to or from such a host.
func (tbl *Table) Avoids(h topology.NodeID) bool {
	return tbl.avoid.hostDead(tbl.topo, h)
}

// row returns src's row, or nil when no pair out of src is stored.
func (tbl *Table) row(src topology.NodeID) []pair {
	if i := uint(src - tbl.srcLo); i < uint(len(tbl.rows)) {
		return tbl.rows[i]
	}
	return nil
}

// isHost reports whether h lies in the table's host span.
func (tbl *Table) isHost(h topology.NodeID) bool {
	return uint(h-tbl.hostLo) < uint(tbl.hostSpan)
}

// store sets the record of src->dst for src and dst in the host span,
// allocating src's row on its first store.
func (tbl *Table) store(src, dst topology.NodeID, p pair) {
	row := tbl.row(src)
	if row == nil {
		row = tbl.addRow(src)
	}
	row[dst-tbl.hostLo] = p
	if p.path != pairUnroutable {
		tbl.n++
	}
}

// addRow allocates src's row. The first row takes the inline slot; the
// second promotes the directory to one slot per host, keeping the
// first row where it is.
func (tbl *Table) addRow(src topology.NodeID) []pair {
	row := make([]pair, tbl.hostSpan)
	switch {
	case tbl.rows == nil:
		tbl.srcLo, tbl.inline[0] = src, row
		tbl.rows = tbl.inline[:]
		return row
	case len(tbl.rows) < tbl.hostSpan:
		dir := make([][]pair, tbl.hostSpan)
		dir[tbl.srcLo-tbl.hostLo] = tbl.inline[0]
		tbl.srcLo, tbl.rows, tbl.inline[0] = tbl.hostLo, dir, nil
	}
	tbl.rows[src-tbl.srcLo] = row
	return row
}

// view returns the Route of src->dst stored as the routed record p.
func (tbl *Table) view(src, dst topology.NodeID, p pair) Route {
	return Route{Src: src, Dst: dst, store: tbl.paths, rec: p}
}

// adopt stores a route shared from a previous table of the lineage: its
// record means the same route here. Its in-transit hosts join the load
// if the load is in use; otherwise loads counts them when it is first
// needed. (buildRoute counts the hosts of the routes it builds itself.)
func (tbl *Table) adopt(r Route) {
	tbl.store(r.Src, r.Dst, r.rec)
	if tbl.itbLoad != nil {
		for k := range r.NumITBs() {
			tbl.itbLoad[r.itbHost(k)-tbl.hostLo]++
		}
	}
}

// loads returns the in-transit load per host, counting it from the
// stored routes on first use.
func (tbl *Table) loads() []int32 {
	if tbl.itbLoad != nil {
		return tbl.itbLoad
	}
	tbl.itbLoad = make([]int32, tbl.hostSpan)
	for _, row := range tbl.rows {
		for _, p := range row {
			if p.path == 0 || p.path == pairUnroutable {
				continue
			}
			r := Route{store: tbl.paths, rec: p}
			for k := range r.NumITBs() {
				tbl.itbLoad[r.itbHost(k)-tbl.hostLo]++
			}
		}
	}
	return tbl.itbLoad
}

// resolve routes one pair and stores the outcome, so the pair is never
// resolved again: a pair with a dead endpoint is marked unroutable
// without a search, and a live pair goes to resolveLive.
func (tbl *Table) resolve(src, dst topology.NodeID) (Route, error) {
	if !tbl.isHost(src) || !tbl.isHost(dst) {
		return Route{}, errNotHost
	}
	if src == dst || tbl.avoid.hostDead(tbl.topo, src) || tbl.avoid.hostDead(tbl.topo, dst) {
		tbl.store(src, dst, pair{path: pairUnroutable})
		return Route{}, errDeadEndpoint
	}
	return tbl.resolveLive(src, dst)
}

// resolveLive routes a pair of distinct live hosts: the route of prev
// is shared if it survives the exclusion set (routes are immutable
// once built), and otherwise the pair is searched. A pair that does
// not route is marked unroutable.
func (tbl *Table) resolveLive(src, dst topology.NodeID) (Route, error) {
	if tbl.prev != nil {
		if r, ok := tbl.prev.Lookup(src, dst); ok && routeValid(r, tbl.avoid) {
			tbl.adopt(r)
			if tbl.reused != nil {
				*tbl.reused++
			}
			return r, nil
		}
	}
	p, err := tbl.buildRoute(src, dst)
	if err != nil {
		tbl.store(src, dst, pair{path: pairUnroutable})
		return Route{}, err
	}
	tbl.store(src, dst, p)
	return tbl.view(src, dst, p), nil
}

// fill resolves every unresolved pair of live hosts in host-major
// order, the order the in-transit load balance is defined by. A pair
// that does not route fails the fill when strict and is marked
// unroutable otherwise. A filled table resolves nothing more, so it
// drops its lazy state and its switch-pair cache.
func (tbl *Table) fill(strict bool) error {
	t := tbl.topo
	hosts := t.Hosts()
	for _, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			if row := tbl.row(src); row != nil && row[dst-tbl.hostLo].path != 0 {
				continue
			}
			if _, err := tbl.resolveLive(src, dst); err != nil && strict {
				return err
			}
		}
	}
	tbl.lazy, tbl.prev, tbl.reused = false, nil, nil
	tbl.pathCache = nil
	return nil
}

// Lookup returns the route from src to dst. On a lazy table a miss
// resolves (and memoizes) the pair on demand.
func (tbl *Table) Lookup(src, dst topology.NodeID) (Route, bool) {
	if row := tbl.row(src); row != nil && tbl.isHost(dst) {
		switch p := row[dst-tbl.hostLo]; p.path {
		case 0:
		case pairUnroutable:
			return Route{}, false
		default:
			return tbl.view(src, dst, p), true
		}
	}
	if !tbl.lazy {
		return Route{}, false
	}
	r, err := tbl.resolve(src, dst)
	return r, err == nil
}

// materialize resolves every pair of a lazy table, so whole-table
// accessors see the complete route set; eager tables are untouched.
func (tbl *Table) materialize() {
	if tbl.lazy {
		tbl.fill(false)
	}
}

// Routes returns every route in the table in host-major order: by
// source, then by destination, both in ascending NodeID order (the
// order of Topology.Hosts).
func (tbl *Table) Routes() []Route {
	tbl.materialize()
	out := make([]Route, 0, tbl.n)
	for i, row := range tbl.rows {
		for j, p := range row {
			if p.path != 0 && p.path != pairUnroutable {
				out = append(out, tbl.view(tbl.srcLo+topology.NodeID(i), tbl.hostLo+topology.NodeID(j), p))
			}
		}
	}
	return out
}

// Len returns the number of routes.
func (tbl *Table) Len() int {
	tbl.materialize()
	return tbl.n
}

// buildRoute routes a host pair over its switch pair's path, searching
// the switch pair on its first use, and returns the pair's record: the
// path and, at each in-transit switch, the ejection into its
// least-loaded live host (deterministic tie-break: the lowest id).
func (tbl *Table) buildRoute(src, dst topology.NodeID) (pair, error) {
	t := tbl.topo
	srcSw, ok := t.SwitchOf(src)
	if !ok {
		return pair{}, fmt.Errorf("routing: host %d not cabled", src)
	}
	dstSw, ok := t.SwitchOf(dst)
	if !ok {
		return pair{}, fmt.Errorf("routing: host %d not cabled", dst)
	}
	key := [2]topology.NodeID{srcSw, dstSw}
	idx, cached := tbl.pathCache[key]
	if !cached {
		var trav []Traversal
		var itbBefore []int
		var lanes []uint8
		var err error
		if tbl.pathFn != nil {
			trav, itbBefore, lanes, err = tbl.pathFn(srcSw, dstSw)
		} else {
			trav, itbBefore, lanes, err = tbl.graph.path(tbl.search, tbl.avoid, srcSw, dstSw)
		}
		if err != nil {
			return pair{}, err
		}
		idx = tbl.paths.add(srcSw, dstSw, trav, itbBefore, lanes)
		if tbl.pathCache == nil {
			tbl.pathCache = make(map[[2]topology.NodeID]uint32)
		}
		tbl.pathCache[key] = idx
	}
	p := pair{path: idx + 1}
	itbs := tbl.paths.itbs(tbl.paths.at(idx))
	if len(itbs) == 0 {
		return p, nil
	}
	var arena []byte
	if len(itbs) > inlineEjects {
		p.ejects = uint32(len(tbl.paths.ejects))
		tbl.paths.ejects = append(tbl.paths.ejects, make([]byte, len(itbs))...)
		arena = tbl.paths.ejects[p.ejects:]
	}
	load := tbl.loads()
	for k, sp := range itbs {
		sw := topology.NodeID(sp.sw)
		best := topology.NodeID(-1)
		for _, port := range tbl.graph.hostPorts[tbl.graph.sidx[sw]] {
			h := t.LinkAt(sw, int(port)).Other(sw)
			if tbl.avoid.hostDead(t, h) {
				continue
			}
			if best < 0 || load[h-tbl.hostLo] < load[best-tbl.hostLo] ||
				load[h-tbl.hostLo] == load[best-tbl.hostLo] && h < best {
				best = h
			}
		}
		if best < 0 {
			return pair{}, fmt.Errorf("routing: ITB needed at switch %d which has no live hosts", sw)
		}
		load[best-tbl.hostLo]++
		port := byte(t.LinkAt(best, 0).PortAt(sw))
		if arena != nil {
			arena[k] = port
		} else {
			p.ejects |= uint32(port) << (8 * k)
		}
	}
	return p, nil
}
