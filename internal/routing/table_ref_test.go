package routing

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// refRoute is a route as the per-pair route tables stored it before
// paths were stored once per switch pair: its own wire header and
// in-transit hosts, plus the link path and lanes it was assembled from.
type refRoute struct {
	hdr      []byte
	itbHosts []topology.NodeID
	links    []Traversal
	lanes    []uint8
}

// refUnroutable is the reference's marker of a pair resolved to no
// route.
var refUnroutable = new(refRoute)

// refTable is the per-pair reference: the Table's resolver (dead
// endpoints unroutable, surviving routes of prev adopted, the rest
// searched in the table's order), storing one assembled refRoute per
// host pair and counting the in-transit load from the stored routes,
// as the tables did before the path store.
type refTable struct {
	g      *engineGraph
	s      search
	avoid  *Avoid
	routes map[[2]topology.NodeID]*refRoute
	load   []int32
	cache  map[[2]topology.NodeID]cachedPath
	lazy   bool
	prev   *refTable
	reused int
}

// cachedPath is one switch pair's search result.
type cachedPath struct {
	trav      []Traversal
	itbBefore []int
	lanes     []uint8
}

func newRefTable(g *engineGraph, s search, avoid *Avoid) *refTable {
	return &refTable{g: g, s: s, avoid: avoid, routes: map[[2]topology.NodeID]*refRoute{}}
}

// refBuild is the reference of an engine's BuildTable.
func refBuild(g *engineGraph, e Engine, avoid *Avoid) *refTable {
	rt := newRefTable(g, e.search(), avoid)
	rt.fill()
	return rt
}

// rebuild is the reference of Table.Rebuild.
func (rt *refTable) rebuild(avoid *Avoid) *refTable {
	next := newRefTable(rt.g, rt.s, avoid)
	t := rt.g.t
	for _, src := range t.Hosts() {
		if avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range t.Hosts() {
			if src == dst || avoid.hostDead(t, dst) {
				continue
			}
			if r, ok := rt.lookup(src, dst); ok && next.valid(r) {
				next.adopt(src, dst, r)
			}
		}
	}
	next.fill()
	return next
}

// rebuildLazy is the reference of Table.RebuildLazy.
func (rt *refTable) rebuildLazy(avoid *Avoid) *refTable {
	next := newRefTable(rt.g, rt.s, avoid)
	next.lazy, next.prev = true, rt
	return next
}

func (rt *refTable) lookup(src, dst topology.NodeID) (*refRoute, bool) {
	if r, ok := rt.routes[[2]topology.NodeID{src, dst}]; ok {
		return r, r != refUnroutable
	}
	if !rt.lazy || !rt.isHost(src) || !rt.isHost(dst) {
		return nil, false
	}
	t := rt.g.t
	if src == dst || rt.avoid.hostDead(t, src) || rt.avoid.hostDead(t, dst) {
		rt.routes[[2]topology.NodeID{src, dst}] = refUnroutable
		return nil, false
	}
	r := rt.resolveLive(src, dst)
	return r, r != refUnroutable
}

func (rt *refTable) isHost(h topology.NodeID) bool {
	return uint(h-rt.g.hostLo) < uint(rt.g.hostSpan)
}

func (rt *refTable) fill() {
	t := rt.g.t
	for _, src := range t.Hosts() {
		if rt.avoid.hostDead(t, src) {
			continue
		}
		for _, dst := range t.Hosts() {
			if src == dst || rt.avoid.hostDead(t, dst) {
				continue
			}
			if _, ok := rt.routes[[2]topology.NodeID{src, dst}]; !ok {
				rt.resolveLive(src, dst)
			}
		}
	}
	rt.lazy, rt.prev, rt.cache = false, nil, nil
}

func (rt *refTable) resolveLive(src, dst topology.NodeID) *refRoute {
	key := [2]topology.NodeID{src, dst}
	if rt.prev != nil {
		if r, ok := rt.prev.lookup(src, dst); ok && rt.valid(r) {
			rt.adopt(src, dst, r)
			return r
		}
	}
	r := rt.assemblePair(src, dst)
	rt.routes[key] = r
	return r
}

// valid is routeValid over the reference's stored link path.
func (rt *refTable) valid(r *refRoute) bool {
	for _, tr := range r.links {
		if rt.avoid.avoidsLink(tr.Link.ID) {
			return false
		}
	}
	for _, h := range r.itbHosts {
		if rt.avoid.hostDead(rt.g.t, h) {
			return false
		}
	}
	return true
}

func (rt *refTable) adopt(src, dst topology.NodeID, r *refRoute) {
	rt.routes[[2]topology.NodeID{src, dst}] = r
	rt.reused++
	if rt.load != nil {
		for _, h := range r.itbHosts {
			rt.load[h-rt.g.hostLo]++
		}
	}
}

func (rt *refTable) loads() []int32 {
	if rt.load == nil {
		rt.load = make([]int32, rt.g.hostSpan)
		for _, r := range rt.routes {
			for _, h := range r.itbHosts {
				rt.load[h-rt.g.hostLo]++
			}
		}
	}
	return rt.load
}

// assemblePair searches the pair's switch pair (once per switch pair)
// and assembles the route; refUnroutable when either fails.
func (rt *refTable) assemblePair(src, dst topology.NodeID) *refRoute {
	t := rt.g.t
	srcSw, _ := t.SwitchOf(src)
	dstSw, _ := t.SwitchOf(dst)
	key := [2]topology.NodeID{srcSw, dstSw}
	cp, ok := rt.cache[key]
	if !ok {
		var err error
		cp.trav, cp.itbBefore, cp.lanes, err = rt.g.path(rt.s, rt.avoid, srcSw, dstSw)
		if err != nil {
			return refUnroutable
		}
		if rt.cache == nil {
			rt.cache = map[[2]topology.NodeID]cachedPath{}
		}
		rt.cache[key] = cp
	}
	r, err := rt.assemble(src, dst, srcSw, cp.trav, cp.itbBefore, cp.lanes)
	if err != nil {
		return refUnroutable
	}
	return r
}

// assemble is the per-pair assembler the tables ran before the path
// store: the wire header written in full per host pair, with the
// least-loaded live in-transit host chosen at each reset (ties to the
// lowest id). It also derives the link path and lanes straight from
// the traversals.
func (rt *refTable) assemble(src, dst, srcSw topology.NodeID, trav []Traversal, itbBefore []int, lanes []uint8) (*refRoute, error) {
	t := rt.g.t
	r := &refRoute{}
	total := headerLen(trav, itbBefore, lanes)
	wireLane := uint8(0)
	r.links = append(r.links, Traversal{Link: t.LinkAt(src, 0), From: src})
	laneOf := []uint8{0}
	flushSegment := func(itbSwitch topology.NodeID) error {
		load := rt.loads()
		best := topology.NodeID(-1)
		for _, p := range rt.g.hostPorts[rt.g.sidx[itbSwitch]] {
			h := t.LinkAt(itbSwitch, int(p)).Other(itbSwitch)
			if rt.avoid.hostDead(t, h) {
				continue
			}
			if best < 0 || load[h-rt.g.hostLo] < load[best-rt.g.hostLo] ||
				load[h-rt.g.hostLo] == load[best-rt.g.hostLo] && h < best {
				best = h
			}
		}
		if best < 0 {
			return fmt.Errorf("no live host at switch %d", itbSwitch)
		}
		load[best-rt.g.hostLo]++
		r.hdr = append(r.hdr, byte(t.LinkAt(best, 0).PortAt(itbSwitch)), packet.ITBTag, byte(total-len(r.hdr)-3))
		r.itbHosts = append(r.itbHosts, best)
		l := t.LinkAt(best, 0)
		r.links = append(r.links, Traversal{Link: l, From: itbSwitch}, Traversal{Link: l, From: best})
		laneOf = append(laneOf, wireLane, 0)
		wireLane = 0
		return nil
	}
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
			r.hdr = append(r.hdr, packet.VCTag, lanes[i])
			wireLane = lanes[i]
		}
		r.hdr = append(r.hdr, byte(tr.Link.PortAt(tr.From)))
		r.links = append(r.links, tr)
		laneOf = append(laneOf, wireLane)
		curSw = tr.To()
	}
	for ; nextITB < len(itbBefore); nextITB++ {
		if err := flushSegment(curSw); err != nil {
			return nil, err
		}
	}
	r.hdr = append(r.hdr, byte(t.LinkAt(dst, 0).PortAt(curSw)))
	r.links = append(r.links, Traversal{Link: t.LinkAt(dst, 0), From: curSw})
	laneOf = append(laneOf, wireLane)
	if slices.ContainsFunc(laneOf, func(l uint8) bool { return l != 0 }) {
		r.lanes = laneOf
	}
	return r, nil
}

// refDiff reports the first difference between a table's route and
// the reference's: header bytes, in-transit hosts, link path, lanes.
func refDiff(got Route, want *refRoute) error {
	if hdr := got.appendHeader(nil); !bytes.Equal(hdr, want.hdr) {
		return fmt.Errorf("header %v, reference %v", hdr, want.hdr)
	}
	if !slices.Equal(got.ITBHosts(), want.itbHosts) {
		return fmt.Errorf("in-transit hosts %v, reference %v", got.ITBHosts(), want.itbHosts)
	}
	if links := got.LinkPath(); !slices.EqualFunc(links, want.links, func(a, b Traversal) bool {
		return a.Link.ID == b.Link.ID && a.From == b.From
	}) {
		return fmt.Errorf("link path %v, reference %v", links, want.links)
	}
	if lanes := got.Lanes(); !slices.Equal(lanes, want.lanes) {
		return fmt.Errorf("lanes %v, reference %v", lanes, want.lanes)
	}
	return nil
}

// sameAsRef looks up every ordered host pair in the given order on
// both tables and requires the same outcome and the same route.
func sameAsRef(t *testing.T, ctx string, tbl *Table, ref *refTable, pairs [][2]topology.NodeID) {
	t.Helper()
	for _, p := range pairs {
		got, ok := tbl.Lookup(p[0], p[1])
		want, wok := ref.lookup(p[0], p[1])
		if ok != wok {
			t.Fatalf("%s: pair %d->%d routed %v, reference %v", ctx, p[0], p[1], ok, wok)
		}
		if !ok {
			continue
		}
		if err := refDiff(got, want); err != nil {
			t.Fatalf("%s: pair %d->%d: %v", ctx, p[0], p[1], err)
		}
	}
}

// refEngines lists every configuration of Engines() and pathEngines(),
// once each, and the up*/down* engine.
func refEngines() []Engine {
	var out []Engine
	seen := map[string]bool{}
	for _, e := range append(append([]Engine{UpDownRouting}, Engines()...), pathEngines()...) {
		if l := engineLabel(e); !seen[l] {
			seen[l] = true
			out = append(out, e)
		}
	}
	return out
}

// TestTableMatchesPerPairReference pins the path store to the per-pair
// route tables it replaced: for every engine configuration, on the
// testbed, random 8- and 18-switch networks, dragonfly-72 and
// fattree-64, fault-free and under seeded random dead links and hosts,
// every pair of an eager build, an eager rebuild of the fault-free
// table and a lazy rebuild looked up in shuffled order has the header
// bytes, in-transit hosts, link path and lanes the per-pair reference
// assembles.
func TestTableMatchesPerPairReference(t *testing.T) {
	testbed, _ := topology.Testbed()
	cells := []equivCell{
		{"testbed", testbed},
		{"random-8", propTopology(t, "irregular", 32, 3)},
		{"random-18", propTopology(t, "irregular", 72, 4)},
		{"dragonfly-72", propTopology(t, "dragonfly", 72, 1)},
		{"fattree-64", propTopology(t, "fattree", 64, 1)},
	}
	for ci, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			tp := c.topo
			rng := rand.New(rand.NewSource(int64(ci) + 7))
			avoids := append([]*Avoid{nil}, randomAvoids(tp, rng)...)
			hostMajor := benchPairs(tp)
			for _, e := range refEngines() {
				g := mustGraph(tp, e.Orientation(tp))
				base, err := e.BuildTable(tp, nil)
				if err != nil {
					t.Fatalf("%s: %v", engineLabel(e), err)
				}
				refBase := refBuild(g, e, nil)
				sameAsRef(t, engineLabel(e)+" eager", base, refBase, hostMajor)
				for ai, avoid := range avoids[1:] {
					ctx := fmt.Sprintf("%s avoid %d", engineLabel(e), ai)
					full, err := e.BuildTable(tp, avoid)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					sameAsRef(t, ctx+" eager", full, refBuild(g, e, avoid), hostMajor)

					reb, reused := base.Rebuild(avoid)
					refReb := refBase.rebuild(avoid)
					if reused != refReb.reused {
						t.Fatalf("%s: rebuild reused %d routes, reference %d", ctx, reused, refReb.reused)
					}
					sameAsRef(t, ctx+" rebuild", reb, refReb, hostMajor)

					shuffled := slices.Clone(hostMajor)
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
					var lazyReused uint64
					lazy := base.RebuildLazy(avoid, &lazyReused)
					refLazy := refBase.rebuildLazy(avoid)
					sameAsRef(t, ctx+" lazy", lazy, refLazy, shuffled)
					if int(lazyReused) != refLazy.reused {
						t.Fatalf("%s: lazy rebuild reused %d routes, reference %d", ctx, lazyReused, refLazy.reused)
					}
				}
			}
		})
	}
}

// TestFindRouteMatchesPerPairReference: the Finder's probe routes,
// fault-free from its memoizing table and under exclusion sets from
// fresh lazy tables sharing its path store, queried in shuffled order,
// match the per-pair reference's up*/down* routes.
func TestFindRouteMatchesPerPairReference(t *testing.T) {
	for ci, tp := range []*topology.Topology{propTopology(t, "irregular", 72, 4), propTopology(t, "dragonfly", 72, 1)} {
		ud := topology.BuildUpDown(tp)
		finder, err := NewFinder(tp, ud)
		if err != nil {
			t.Fatal(err)
		}
		g := mustGraph(tp, ud)
		rng := rand.New(rand.NewSource(int64(ci) + 11))
		avoids := randomAvoids(tp, rng)
		free := newRefTable(g, UpDownRouting.search(), nil)
		free.lazy = true
		pairs := benchPairs(tp)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for k, p := range pairs {
			var avoid *Avoid
			ref := free
			if k%3 == 2 {
				avoid = avoids[k%len(avoids)]
				ref = newRefTable(g, UpDownRouting.search(), avoid)
				ref.lazy = true
			}
			got, err := finder.FindRoute(p[0], p[1], avoid)
			want, ok := ref.lookup(p[0], p[1])
			if (err == nil) != ok {
				t.Fatalf("pair %d->%d avoid %v: FindRoute error %v, reference routed %v", p[0], p[1], avoid != nil, err, ok)
			}
			if ok {
				if err := refDiff(got, want); err != nil {
					t.Fatalf("pair %d->%d avoid %v: %v", p[0], p[1], avoid != nil, err)
				}
			}
		}
	}
}
