package routing

import (
	"errors"
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Table holds the source routes between every ordered host pair, as
// the mapper would store them in each NIC's SRAM.
//
// Routes live in per-source rows: a row is a []*Route indexed by
// destination NodeID, allocated when the first route out of that
// source is stored. A row spans the host NodeIDs only (index
// dst-hostLo), since only hosts are routed to. A NIC only ever reads
// its own host's row, and a table that one host reads (a gossip
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
	// while no route out of src is stored. It is inline[:] (srcLo the
	// first source stored) until a second source stores, and then has
	// one slot per host (srcLo = hostLo).
	srcLo  topology.NodeID
	rows   [][]*Route
	inline [1][]*Route
	// n counts the routes stored (unroutable markers excluded).
	n int
	// itbLoad counts in-transit assignments per host (index
	// h-hostLo), used to balance host selection at in-transit
	// switches. It is the count of each host over the ITBHosts of the
	// stored routes, so it stays nil until the first in-transit host
	// choice needs it, and is then counted from the stored routes.
	itbLoad []int32
	// pathCache memoises switch-pair searches: all host pairs on the
	// same switch pair share one search (ITB host choice still varies
	// per route for balance). nil until the first search, and again
	// once every pair is resolved.
	pathCache map[[2]topology.NodeID]cachedPath
	// routeChunk, hdrChunk and itbChunk back the routes the table
	// assembles, their headers and their in-transit hosts.
	routeChunk chunk[Route]
	hdrChunk   chunk[byte]
	itbChunk   chunk[topology.NodeID]
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

// unroutable fills the row slot of a pair a lazy table resolved to no
// route, so a second Lookup of that pair runs no search.
var unroutable = new(Route)

// The resolver's failures are sentinels, so a lazy Lookup that misses
// allocates nothing.
var (
	errNotHost      = errors.New("routing: endpoint is not a host")
	errDeadEndpoint = errors.New("routing: endpoint dead under the exclusion set")
)

// Orientation returns the up*/down* orientation the table was routed
// over.
func (tbl *Table) Orientation() *topology.UpDown { return tbl.graph.ud }

type cachedPath struct {
	trav      []Traversal
	itbBefore []int
	// lanes is the virtual-channel lane of each traversal (nil means
	// everything rides lane 0; only lane-aware engines populate it).
	lanes []uint8
}

// newTable returns an empty table of engine e over graph g, searching
// under the exclusion set avoid.
func newTable(g *engineGraph, e Engine, avoid *Avoid) *Table {
	tbl := &Table{topo: g.t, hostLo: g.hostLo, hostSpan: g.hostSpan, engine: e, graph: g, search: e.search()}
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

// row returns src's row, or nil when no route out of src is stored.
func (tbl *Table) row(src topology.NodeID) []*Route {
	if i := uint(src - tbl.srcLo); i < uint(len(tbl.rows)) {
		return tbl.rows[i]
	}
	return nil
}

// isHost reports whether h lies in the table's host span.
func (tbl *Table) isHost(h topology.NodeID) bool {
	return uint(h-tbl.hostLo) < uint(tbl.hostSpan)
}

// store sets the route (or the unroutable marker) of src->dst for src
// and dst in the host span, allocating src's row on its first store.
func (tbl *Table) store(src, dst topology.NodeID, r *Route) {
	row := tbl.row(src)
	if row == nil {
		row = tbl.addRow(src)
	}
	row[dst-tbl.hostLo] = r
	if r != unroutable {
		tbl.n++
	}
}

// addRow allocates src's row. The first row takes the inline slot; the
// second promotes the directory to one slot per host, keeping the
// first row where it is.
func (tbl *Table) addRow(src topology.NodeID) []*Route {
	row := make([]*Route, tbl.hostSpan)
	switch {
	case tbl.rows == nil:
		tbl.srcLo, tbl.inline[0] = src, row
		tbl.rows = tbl.inline[:]
		return row
	case len(tbl.rows) < tbl.hostSpan:
		dir := make([][]*Route, tbl.hostSpan)
		dir[tbl.srcLo-tbl.hostLo] = tbl.inline[0]
		tbl.srcLo, tbl.rows, tbl.inline[0] = tbl.hostLo, dir, nil
	}
	tbl.rows[src-tbl.srcLo] = row
	return row
}

// adopt stores a route shared from a previous table. Its in-transit
// hosts join the load if the load is in use; otherwise loads counts
// them when it is first needed. (assemble counts the hosts of the
// routes it builds itself.)
func (tbl *Table) adopt(src, dst topology.NodeID, r *Route) {
	tbl.store(src, dst, r)
	if tbl.itbLoad != nil {
		for _, h := range r.ITBHosts {
			tbl.itbLoad[h-tbl.hostLo]++
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
		for _, r := range row {
			if r != nil && r != unroutable {
				for _, h := range r.ITBHosts {
					tbl.itbLoad[h-tbl.hostLo]++
				}
			}
		}
	}
	return tbl.itbLoad
}

// resolve routes one pair and stores the outcome, so the pair is never
// resolved again: a pair with a dead endpoint is marked unroutable
// without a search, and a live pair goes to resolveLive.
func (tbl *Table) resolve(src, dst topology.NodeID) (*Route, error) {
	if !tbl.isHost(src) || !tbl.isHost(dst) {
		return nil, errNotHost
	}
	if src == dst || tbl.avoid.hostDead(tbl.topo, src) || tbl.avoid.hostDead(tbl.topo, dst) {
		tbl.store(src, dst, unroutable)
		return nil, errDeadEndpoint
	}
	return tbl.resolveLive(src, dst)
}

// resolveLive routes a pair of distinct live hosts: the route of prev
// is shared if it survives the exclusion set (routes are immutable
// once built), and otherwise the pair is searched. A pair that does
// not route is marked unroutable.
func (tbl *Table) resolveLive(src, dst topology.NodeID) (*Route, error) {
	if tbl.prev != nil {
		if r, ok := tbl.prev.Lookup(src, dst); ok && routeValid(tbl.topo, r, tbl.avoid) {
			tbl.adopt(src, dst, r)
			if tbl.reused != nil {
				*tbl.reused++
			}
			return r, nil
		}
	}
	r, err := tbl.buildRoute(src, dst)
	if err != nil {
		tbl.store(src, dst, unroutable)
		return nil, err
	}
	tbl.store(src, dst, r)
	return r, nil
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
			if row := tbl.row(src); row != nil && row[dst-tbl.hostLo] != nil {
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
func (tbl *Table) Lookup(src, dst topology.NodeID) (*Route, bool) {
	if row := tbl.row(src); row != nil && tbl.isHost(dst) {
		switch r := row[dst-tbl.hostLo]; r {
		case nil:
		case unroutable:
			return nil, false
		default:
			return r, true
		}
	}
	if !tbl.lazy {
		return nil, false
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
func (tbl *Table) Routes() []*Route {
	tbl.materialize()
	out := make([]*Route, 0, tbl.n)
	for _, row := range tbl.rows {
		for _, r := range row {
			if r != nil && r != unroutable {
				out = append(out, r)
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

// buildRoute assembles a host-to-host Route from a switch path.
func (tbl *Table) buildRoute(src, dst topology.NodeID) (*Route, error) {
	t := tbl.topo
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
		if tbl.pathFn != nil {
			cp.trav, cp.itbBefore, cp.lanes, err = tbl.pathFn(srcSw, dstSw)
		} else {
			cp.trav, cp.itbBefore, cp.lanes, err = tbl.graph.path(tbl.search, tbl.avoid, srcSw, dstSw)
		}
		if err != nil {
			return nil, err
		}
		if tbl.pathCache == nil {
			tbl.pathCache = make(map[[2]topology.NodeID]cachedPath)
		}
		tbl.pathCache[key] = cp
	}
	return tbl.assemble(src, dst, srcSw, cp.trav, cp.itbBefore, cp.lanes)
}

// assemble converts a switch traversal plus ITB reset positions (and,
// for lane-aware engines, per-traversal lane assignments) into a
// Route: its wire header, with the port bytes and in-transit host
// choices. Lane changes embed as [VCTag][lane] pairs in the header,
// emitted exactly where the wire lane (what the fabric infers while
// consuming the route: lane 0 at every injection, then the last
// selected lane) diverges from the lane the path wants for the next
// hop.
//
// The header is written once, into an exactly sized slice; the route,
// its header and its in-transit hosts are carved from the table's
// chunks.
func (tbl *Table) assemble(src, dst, srcSw topology.NodeID, trav []Traversal, itbBefore []int, lanes []uint8) (*Route, error) {
	t := tbl.topo
	var itbHosts []topology.NodeID
	if len(itbBefore) > 0 {
		itbHosts = tbl.itbChunk.take(len(itbBefore), 8, 2048)[:0]
	}
	hdr := tbl.hdrChunk.take(headerLen(trav, itbBefore, lanes), 64, 16<<10)[:0]
	wireLane := uint8(0)
	// flushSegment ends the segment at itbSwitch with the ejection into
	// its least-loaded live host (deterministic tie-break: the lowest
	// id).
	flushSegment := func(itbSwitch topology.NodeID) error {
		load := tbl.loads()
		best := topology.NodeID(-1)
		for _, p := range tbl.graph.hostPorts[tbl.graph.sidx[itbSwitch]] {
			h := t.LinkAt(itbSwitch, int(p)).Other(itbSwitch)
			if tbl.avoid.hostDead(t, h) {
				continue
			}
			if best < 0 || load[h-tbl.hostLo] < load[best-tbl.hostLo] ||
				load[h-tbl.hostLo] == load[best-tbl.hostLo] && h < best {
				best = h
			}
		}
		if best < 0 {
			return fmt.Errorf("routing: ITB needed at switch %d which has no live hosts", itbSwitch)
		}
		load[best-tbl.hostLo]++
		// The ejection port byte, then the next segment's ITB tag and
		// the length of everything after the length byte (Figure 3.b).
		// The re-injection is a fresh lane-0 entry.
		hdr = append(hdr, byte(t.LinkAt(best, 0).PortAt(itbSwitch)), packet.ITBTag, byte(cap(hdr)-len(hdr)-3))
		itbHosts = append(itbHosts, best)
		wireLane = 0
		return nil
	}
	// Split trav at the itbBefore indices.
	nextITB := 0
	curSw := srcSw
	for i, tr := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			if err := flushSegment(curSw); err != nil {
				return nil, err
			}
			nextITB++
		}
		if lanes != nil && lanes[i] != wireLane {
			hdr = append(hdr, packet.VCTag, lanes[i])
			wireLane = lanes[i]
		}
		hdr = append(hdr, byte(tr.Link.PortAt(tr.From)))
		curSw = tr.To()
	}
	// Trailing resets (ITB at the destination switch) would be
	// pointless; the search never produces them, but guard anyway.
	for nextITB < len(itbBefore) {
		if err := flushSegment(curSw); err != nil {
			return nil, err
		}
		nextITB++
	}
	// Deliver into dst. A header longer than packet.MaxRouteLen is
	// stored too: EncodeHeader reports it.
	hdr = append(hdr, byte(t.LinkAt(dst, 0).PortAt(curSw)))
	r := &tbl.routeChunk.take(1, 4, 1024)[0]
	*r = Route{Src: src, Dst: dst, ITBHosts: itbHosts, hdr: hdr, topo: t}
	return r, nil
}

// chunk hands out exactly sized, capped slices of backing arrays that
// grow geometrically: each new array is twice the last, from first up
// to most elements (or the request, if larger). Small tables, such as
// a lazily rebuilt table with one row, hold a few small arrays; a full
// table holds one allocation per most elements.
type chunk[T any] []T

// take returns n fresh elements.
func (c *chunk[T]) take(n, first, most int) []T {
	if cap(*c)-len(*c) < n {
		*c = make([]T, 0, max(n, first, min(2*cap(*c), most)))
	}
	k := len(*c)
	*c = (*c)[:k+n]
	return (*c)[k : k+n : k+n]
}

// headerLen is the wire header length assemble writes for a path: a
// port byte per traversal and one for the delivery, an ejection port
// byte plus an ITB tag and length byte per reset, and a VCTag/lane
// pair wherever the wanted lane differs from the wire lane.
func headerLen(trav []Traversal, itbBefore []int, lanes []uint8) int {
	n := len(trav) + 1 + 3*len(itbBefore)
	if lanes == nil {
		return n
	}
	wireLane, nextITB := uint8(0), 0
	for i := range trav {
		for nextITB < len(itbBefore) && itbBefore[nextITB] == i {
			wireLane = 0
			nextITB++
		}
		if lanes[i] != wireLane {
			n += 2
			wireLane = lanes[i]
		}
	}
	return n
}
