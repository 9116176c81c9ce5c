package routing

import (
	"fmt"

	"repro/internal/topology"
)

// routeValid reports whether a previously built route survives an
// exclusion set: every link it crosses is live and every in-transit
// host it ejects through is usable. Endpoint liveness is the caller's
// check (the rebuild loop skips dead endpoints wholesale).
func routeValid(r Route, avoid *Avoid) bool {
	// Only a set that holds a link can fail a traversal (the gossip
	// planes' sets hold hosts alone), so only then is the header walked.
	if avoid.anyLinks() {
		w := r.walk()
		for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
			if avoid.avoidsLink(tr.Link.ID) {
				return false
			}
		}
	}
	for k := range r.NumITBs() {
		if avoid.hostDead(r.store.g.t, r.itbHost(k)) {
			return false
		}
	}
	return true
}

// Rebuild returns the table the recovery manager publishes at an
// epoch: tbl's engine and switch graph routing every live pair under
// the exclusion set avoid. Every pair whose tbl route survives avoid
// shares it (adoptSurvivors), seeding the in-transit load, so the
// replacement routes, searched afterwards in host-major order, spread
// over the hosts the survivors left least loaded. Pairs that no longer
// route are omitted: Lookup reports them missing, GM fails such sends
// at once, and the rest of the network keeps routing. It returns the
// number of routes reused.
func (tbl *Table) Rebuild(avoid *Avoid) (*Table, int) {
	next := newTable(tbl.graph, tbl.engine, avoid, tbl.paths)
	reused := next.adoptSurvivors(tbl)
	next.fill(false)
	return next, reused
}

// adoptSurvivors shares into tbl, in host-major order, the route of
// every live pair whose prev route survives tbl's exclusion set, and
// returns how many it shared.
func (tbl *Table) adoptSurvivors(prev *Table) int {
	t := tbl.topo
	hosts := t.Hosts()
	reused := 0
	for _, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			if r, ok := prev.Lookup(src, dst); ok && routeValid(r, tbl.avoid) {
				tbl.adopt(r)
				reused++
			}
		}
	}
	return reused
}

// RebuildLazy is Rebuild with on-demand resolution: the returned table
// starts empty, and each Lookup miss either adopts tbl's surviving
// route or searches a replacement, memoizing either way; reused, when
// non-nil, counts the adoptions. An eager rebuild pays O(hosts²) per
// distinct exclusion set just to copy the survivors; a lazy table pays
// only for the pairs its host actually looks up, which is what makes
// per-agent gossip installs (every host rebuilding around its own
// local dead set) affordable at thousand-host scales. The gossip
// detector rebuilds its base table, so each of its tables references
// the base alone.
//
// The table keeps its own copy of avoid, so the caller's set need not
// escape to the heap. The returned table is for single-goroutine
// simulation use: Lookup mutates it.
func (tbl *Table) RebuildLazy(avoid *Avoid, reused *uint64) *Table {
	next := newTable(tbl.graph, tbl.engine, avoid, tbl.paths)
	next.lazy, next.prev, next.reused = true, tbl, reused
	return next
}

// Finder computes single routes under per-call exclusion sets, the
// recovery planes' probe routes. It builds the topology's switch graph
// once. Fault-free queries all go through one lazy table the Finder
// keeps, which memoizes each pair's route and whose switch-pair cache
// runs each switch pair's search once however the queries interleave;
// a query under an exclusion set goes through a fresh lazy table,
// which searches under its own copy of the set. Every query's table
// shares the Finder's path store, so a probe path searched again is
// stored once.
type Finder struct {
	free *Table
}

// NewFinder returns a Finder over topology t and orientation ud.
func NewFinder(t *topology.Topology, ud *topology.UpDown) (*Finder, error) {
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	free := newTable(g, UpDownRouting, nil, nil)
	free.lazy = true
	return &Finder{free: free}, nil
}

// FindRoute computes one up*/down*-legal route src->dst under an
// exclusion set — the recovery manager's verification probes use it
// to reach a suspect over an alternate path that avoids the links the
// primary route crossed. Probe routes never eject through an
// in-transit host: a probe must not depend on a host that may itself
// be the thing being probed. A fault-free query (nil avoid) returns
// the pair's memoized route. An exclusion set must not change while
// queries pass it.
func (f *Finder) FindRoute(src, dst topology.NodeID, avoid *Avoid) (Route, error) {
	tbl := f.free
	if avoid != nil {
		tbl = newTable(tbl.graph, UpDownRouting, avoid, tbl.paths)
		tbl.lazy = true
	}
	if r, ok := tbl.Lookup(src, dst); ok {
		return r, nil
	}
	return Route{}, fmt.Errorf("routing: no probe route %d->%d", src, dst)
}
