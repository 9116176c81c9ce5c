package routing

import (
	"fmt"

	"repro/internal/topology"
)

// routeValid reports whether a previously built route survives an
// exclusion set: every link it crosses is live and every in-transit
// host it ejects through is usable. Endpoint liveness is the caller's
// check (the rebuild loop skips dead endpoints wholesale).
func routeValid(t *topology.Topology, r *Route, avoid *Avoid) bool {
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
	for _, h := range r.ITBHosts {
		if avoid.hostDead(t, h) {
			return false
		}
	}
	return true
}

// rebuildFrom fills tbl from prev, the incremental rebuild the
// recovery manager runs at each epoch publish: every live pair whose
// prev route survives tbl's exclusion set is shared (routes are
// immutable once built), seeding the in-transit load, so replacement
// routes spread over the hosts the survivors left least loaded. The
// remaining pairs are searched afterwards in host-major order,
// omitting those that no longer route. It returns the number of
// routes reused.
func (tbl *Table) rebuildFrom(prev *Table, t *topology.Topology) int {
	hosts := t.Hosts()
	reused := 0
	var missing [][2]topology.NodeID
	for _, src := range hosts {
		if tbl.avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range hosts {
			if src == dst || tbl.avoid.hostDead(t, dst) {
				continue
			}
			if r, ok := prev.Lookup(src, dst); ok && routeValid(t, r, tbl.avoid) {
				tbl.adopt(src, dst, r)
				reused++
				continue
			}
			missing = append(missing, [2]topology.NodeID{src, dst})
		}
	}
	for _, key := range missing {
		if r, err := tbl.buildRoute(t, key[0], key[1]); err == nil {
			tbl.store(key[0], key[1], r)
		}
	}
	return reused
}

// lazyRebuild is the deferred-resolution state of a table returned by
// RebuildAvoidingLazy: while on, Lookup misses resolve against it on
// demand. Pairs with no route under the exclusion set (dead endpoints,
// unreachable under the avoid set) are memoized as unroutable in the
// row, so repeated sends to a dead peer don't re-search every time.
type lazyRebuild struct {
	on   bool
	prev *Table
	// reused, when non-nil, is incremented for every route adopted
	// from prev — the lazy analogue of RebuildAvoiding's return count.
	reused *uint64
}

// RebuildAvoidingLazy is e.RebuildAvoiding with on-demand
// resolution: the returned table starts empty and each Lookup miss
// either adopts prev's still-valid route or searches a replacement,
// memoizing either way; reused, when non-nil, counts the adoptions.
// Eager rebuilds pay O(hosts²) per distinct exclusion set just to
// copy the survivors; a lazy table pays only for the pairs its host
// actually looks up, which is what makes per-agent gossip installs
// (every host rebuilding around its own local dead set) affordable at
// thousand-host scales. The gossip detector passes its base table as
// prev, so each of its tables references the base alone. A nil prev
// (or one built by a different engine value) resolves every pair by
// search.
//
// The table keeps its own copy of avoid, so the caller's set need not
// escape to the heap. The returned table is for single-goroutine
// simulation use: Lookup mutates it.
func RebuildAvoidingLazy(prev *Table, t *topology.Topology, e Engine, avoid *Avoid, reused *uint64) *Table {
	if prev != nil && prev.engine != e {
		prev = nil
	}
	// Without a switch graph every search fails, so every pair prev
	// cannot supply resolves as unroutable.
	g, _ := engineGraphFor(e, prev, t)
	tbl := newTable(t, g, e, avoid)
	tbl.lazy = lazyRebuild{on: true, prev: prev, reused: reused}
	return tbl
}

// resolveLazy fills one pair of a lazily rebuilt table, mirroring one
// iteration of rebuildFrom's loop: dead endpoints are omitted,
// surviving prev routes are shared (routes are immutable once built),
// and invalidated pairs are searched under the exclusion set.
func (tbl *Table) resolveLazy(src, dst topology.NodeID) (*Route, bool) {
	lz, t := &tbl.lazy, tbl.topo
	if uint(src) >= uint(t.NumNodes()) || !tbl.isHost(dst) {
		return nil, false
	}
	if src == dst || tbl.avoid.hostDead(t, src) || tbl.avoid.hostDead(t, dst) {
		tbl.store(src, dst, unroutable)
		return nil, false
	}
	if lz.prev != nil {
		if r, ok := lz.prev.Lookup(src, dst); ok && routeValid(t, r, tbl.avoid) {
			tbl.adopt(src, dst, r)
			if lz.reused != nil {
				*lz.reused++
			}
			return r, true
		}
	}
	if tbl.graph == nil {
		tbl.store(src, dst, unroutable)
		return nil, false
	}
	r, err := tbl.buildRoute(t, src, dst)
	if err != nil {
		tbl.store(src, dst, unroutable)
		return nil, false
	}
	tbl.store(src, dst, r)
	return r, true
}

// Finder computes single routes under per-call exclusion sets, the
// recovery planes' probe routes. It builds the topology's switch graph
// once. Fault-free queries all go through one table the Finder keeps,
// whose switch-pair cache runs each switch pair's search once however
// the queries interleave; a query under an exclusion set goes through
// a fresh table, which searches under its own copy of the set.
type Finder struct {
	t    *topology.Topology
	g    *engineGraph
	free *Table
}

// NewFinder returns a Finder over topology t and orientation ud.
func NewFinder(t *topology.Topology, ud *topology.UpDown) (*Finder, error) {
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	return &Finder{t: t, g: g, free: newTable(t, g, UpDownRouting, nil)}, nil
}

// FindRoute computes one up*/down*-legal route src->dst under an
// exclusion set — the recovery manager's verification probes use it
// to reach a suspect over an alternate path that avoids the links the
// primary route crossed. Probe routes never eject through an
// in-transit host: a probe must not depend on a host that may itself
// be the thing being probed. An exclusion set must not change while
// queries pass it.
func (f *Finder) FindRoute(src, dst topology.NodeID, avoid *Avoid) (*Route, error) {
	if avoid.hostDead(f.t, src) || avoid.hostDead(f.t, dst) {
		return nil, fmt.Errorf("routing: endpoint %d->%d dead under exclusion set", src, dst)
	}
	tbl := f.free
	if avoid != nil {
		tbl = newTable(f.t, f.g, UpDownRouting, avoid)
	}
	return tbl.buildRoute(f.t, src, dst)
}
