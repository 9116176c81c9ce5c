package routing

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// Analysis summarises a route table's structural properties — the
// three factors the paper identifies as limiting up*/down* performance
// (non-minimal routing, unbalanced traffic, contention exposure) show
// up directly in these numbers.
type Analysis struct {
	Routes int
	// AvgLinkHops is the mean number of switch-switch link traversals
	// per route (path length).
	AvgLinkHops float64
	// MaxLinkHops is the longest route.
	MaxLinkHops int
	// MinimalFraction is the fraction of routes whose length equals
	// the topological minimum for their host pair.
	MinimalFraction float64
	// AvgITBs is the mean in-transit buffer count per route.
	AvgITBs float64
	// MaxITBs is the largest in-transit buffer count on any route.
	MaxITBs int
	// LinkLoadCV is the coefficient of variation of per-channel route
	// counts over switch-switch channels: higher means more unbalanced
	// traffic (up*/down* concentrates routes near the root).
	LinkLoadCV float64
	// MaxChannelLoad is the highest number of routes crossing any
	// single switch-switch channel.
	MaxChannelLoad int
	// RootFraction is the fraction of routes that traverse the
	// spanning-tree root switch.
	RootFraction float64
}

// Analyze computes route-set metrics against the topology and the
// orientation used to build the table.
func Analyze(t *topology.Topology, ud *topology.UpDown, tbl *Table) Analysis {
	var a Analysis
	hosts := t.Hosts()
	loads := make(map[Channel]int)
	totalHops, totalITBs := 0, 0
	minimalCount := 0
	// Minimal hop counts come from one unrestricted BFS per source
	// switch, rerun only when the host-major iteration changes source.
	g := tbl.graph
	if g.t != t {
		g = mustGraph(t, ud)
	}
	minHops := make([]int32, len(g.sws))
	queue := make([]int32, 0, len(g.sws))
	lastSrc := int32(-1)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			r, ok := tbl.Lookup(src, dst)
			if !ok {
				continue
			}
			a.Routes++
			hops := 0
			crossesRoot := false
			w := r.walk()
			for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
				if t.Node(tr.From).Kind != topology.KindSwitch ||
					t.Node(tr.To()).Kind != topology.KindSwitch {
					continue
				}
				hops++
				loads[Channel{LinkID: tr.Link.ID, From: tr.From}]++
				if tr.From == ud.Root || tr.To() == ud.Root {
					crossesRoot = true
				}
			}
			totalHops += hops
			if hops > a.MaxLinkHops {
				a.MaxLinkHops = hops
			}
			totalITBs += r.NumITBs()
			if r.NumITBs() > a.MaxITBs {
				a.MaxITBs = r.NumITBs()
			}
			if crossesRoot {
				a.RootFraction++
			}
			srcSw, _ := t.SwitchOf(src)
			dstSw, _ := t.SwitchOf(dst)
			if si := g.sidx[srcSw]; si != lastSrc {
				g.plainBFS(si, minHops, queue)
				lastSrc = si
			}
			if hops == int(minHops[g.sidx[dstSw]]) {
				minimalCount++
			}
		}
	}
	if a.Routes == 0 {
		return a
	}
	a.AvgLinkHops = float64(totalHops) / float64(a.Routes)
	a.AvgITBs = float64(totalITBs) / float64(a.Routes)
	a.MinimalFraction = float64(minimalCount) / float64(a.Routes)
	a.RootFraction /= float64(a.Routes)

	// Load balance over all switch-switch channels (including unused
	// ones, which count as zero load).
	var chans []Channel
	for i := range t.Links() {
		l := t.Link(i)
		if t.Node(l.A).Kind == topology.KindSwitch && t.Node(l.B).Kind == topology.KindSwitch {
			chans = append(chans, Channel{LinkID: l.ID, From: l.A}, Channel{LinkID: l.ID, From: l.B})
		}
	}
	if len(chans) > 0 {
		sum := 0.0
		for _, c := range chans {
			load := loads[c]
			sum += float64(load)
			if load > a.MaxChannelLoad {
				a.MaxChannelLoad = load
			}
		}
		mean := sum / float64(len(chans))
		if mean > 0 {
			varSum := 0.0
			for _, c := range chans {
				d := float64(loads[c]) - mean
				varSum += d * d
			}
			a.LinkLoadCV = math.Sqrt(varSum/float64(len(chans))) / mean
		}
	}
	return a
}

// Publish exports the analysis into a metrics registry under
// routing.*. Nil registries are ignored.
func (a Analysis) Publish(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.Gauge("routing.routes").Set(float64(a.Routes))
	r.Gauge("routing.avg_link_hops").Set(a.AvgLinkHops)
	r.Gauge("routing.max_link_hops").Set(float64(a.MaxLinkHops))
	r.Gauge("routing.minimal_fraction").Set(a.MinimalFraction)
	r.Gauge("routing.avg_itbs").Set(a.AvgITBs)
	r.Gauge("routing.max_itbs").Set(float64(a.MaxITBs))
	r.Gauge("routing.link_load_cv").Set(a.LinkLoadCV)
	r.Gauge("routing.max_channel_load").Set(float64(a.MaxChannelLoad))
	r.Gauge("routing.root_fraction").Set(a.RootFraction)
}
