package routing

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/topology"
)

// Engine certification
//
// Myrinet is source-routed: the wire header a Table route holds is the
// only forwarding state, and the only route encoding. The engines
// study needs no second store to check and summarise an engine at
// thousands of hosts: CertifyEngine runs the engine's search once per
// source switch, as the Table builds do, and reads every destination's
// walked search states directly, certifying and counting each switch
// path as it goes. Nothing is stored per pair.

// EngineAnalysis summarises an engine's all-pairs switch paths for the
// engine-comparison study: path quality (hops vs. minimal), in-transit
// cost, and the congestion structure (channel load spread, root
// pressure) that predicts saturation throughput.
type EngineAnalysis struct {
	Engine   string
	Switches int
	// Pairs counts the routed ordered switch pairs (off-diagonal).
	Pairs int
	// AvgHops / MaxHops are switch-switch hop counts per path.
	AvgHops float64
	MaxHops int
	// AvgITBs / MaxITBs / TotalITBs count in-transit resets.
	AvgITBs   float64
	MaxITBs   int
	TotalITBs int
	// MinimalFraction is the fraction of pairs routed at exactly the
	// unrestricted shortest-path length. For the escape-layer engine
	// 1-MinimalFraction is the escape fraction.
	MinimalFraction float64
	// RootFraction is the fraction of paths crossing the orientation
	// root switch — the classic up*/down* bottleneck indicator.
	RootFraction float64
	// MaxChannelLoad / MeanChannelLoad / LinkLoadCV describe how the
	// all-pairs paths spread over directed switch-switch channels;
	// HotspotRatio is max/mean (1.0 = perfectly even).
	MaxChannelLoad  int
	MeanChannelLoad float64
	LinkLoadCV      float64
	HotspotRatio    float64
	// TableBytes is the size of the switch-pair route encoding: a 4 B
	// offset per switch pair (plus one closing offset), and per path
	// 1 B per hop and 2 B per in-transit reset or lane change (a
	// marker byte and its ejection port or lane).
	TableBytes int
}

// CertifyEngine certifies and analyses engine e's switch paths on t:
// every ordered switch pair must be reachable; every segment between
// in-transit resets and lane changes must be up*/down* legal under
// the engine's orientation; every reset must happen at a switch with a
// live host; and the channel dependency graph of all the paths must be
// acyclic (Dally & Seitz). Cost is one engine search and one plain BFS
// per source switch.
func CertifyEngine(e Engine, t *topology.Topology) (EngineAnalysis, error) {
	return certifyEngine(e, t, nil)
}

// certifyEngine is CertifyEngine. A non-nil visit sees every certified
// path of switch pair (si, di) as it is walked: the source switch with
// lane 0, then the switch each step arrives at with the lane it rides
// (a reset repeats its switch, with lane 0).
func certifyEngine(e Engine, t *topology.Topology, visit func(si, di int, sw topology.NodeID, lane uint8)) (EngineAnalysis, error) {
	name := e.Name()
	if err := engineCheckTopology(name, t); err != nil {
		return EngineAnalysis{}, err
	}
	ud := e.Orientation(t)
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return EngineAnalysis{}, err
	}
	s := e.search()
	L := int32(s.lanes)
	n := len(g.sws)
	a := EngineAnalysis{Engine: name, Switches: n, TableBytes: 4 * (n*n + 1)}
	c := newPathCert(t, int(s.lanes))
	minDist := make([]int32, n)
	queue := make([]int32, 0, n)
	loads := make([]int32, 2*len(t.Links()))
	totalHops := 0
	sl := &g.slot // the graph is this certification's own: no lock needed
	for si := 0; si < n; si++ {
		sl.run(g, s, nil, int32(si))
		g.plainBFS(int32(si), minDist, queue)
		for di := 0; di < n; di++ {
			if si == di {
				continue
			}
			st, goal := sl.goal(int32(di))
			if goal < 0 {
				return a, fmt.Errorf("routing: engine %q: switch %d unreachable from %d", name, g.sws[di], g.sws[si])
			}
			sl.buf = st.walk(goal, sl.buf)
			if visit != nil {
				visit(si, di, g.sws[si], 0)
			}
			c.start()
			hops, itbs := 0, 0
			root := false
			at := int32(si) // the switch the path has reached
			for _, cur := range sl.buf {
				sw := cur / L / 2
				switch edge := st.parentEdge[cur]; edge {
				case edgeReset:
					if len(sl.eject[sw]) == 0 {
						return a, fmt.Errorf("routing: engine %q: pair (%d, %d) resets at switch %d, which has no live host",
							name, g.sws[si], g.sws[di], g.sws[sw])
					}
					c.start()
					itbs++
					a.TableBytes += 2
				case edgeBump:
					// The bump surfaces as the next hop's lane.
				default:
					if edge < g.eOff[at] || edge >= g.eOff[at+1] || g.eTo[edge] != sw {
						return a, fmt.Errorf("routing: engine %q: pair (%d, %d) leaves switch %d by an edge that is not its own",
							name, g.sws[si], g.sws[di], g.sws[at])
					}
					l, from, lane := t.Link(int(g.eLink[edge])), g.sws[at], uint8(cur%L)
					if lane != c.lane {
						a.TableBytes += 2
					}
					if err := c.hop(l, from, lane, g.eDown[edge]); err != nil {
						return a, fmt.Errorf("routing: engine %q: pair (%d, %d): %w", name, g.sws[si], g.sws[di], err)
					}
					hops++
					a.TableBytes++
					loads[chanIndex(l, from)]++
					root = root || from == ud.Root || g.sws[sw] == ud.Root
				}
				if visit != nil && st.parentEdge[cur] != edgeBump {
					visit(si, di, g.sws[sw], uint8(cur%L))
				}
				at = sw
			}
			a.Pairs++
			totalHops += hops
			a.MaxHops = max(a.MaxHops, hops)
			a.TotalITBs += itbs
			a.MaxITBs = max(a.MaxITBs, itbs)
			if int32(hops) == minDist[di] {
				a.MinimalFraction++
			}
			if root {
				a.RootFraction++
			}
		}
	}
	if err := c.check(); err != nil {
		return a, fmt.Errorf("routing: engine %q: %w", name, err)
	}
	if a.Pairs > 0 {
		a.AvgHops = float64(totalHops) / float64(a.Pairs)
		a.AvgITBs = float64(a.TotalITBs) / float64(a.Pairs)
		a.MinimalFraction /= float64(a.Pairs)
		a.RootFraction /= float64(a.Pairs)
	}
	// Load statistics over directed switch-switch channels (including
	// idle ones: an engine that concentrates load leaves many at zero).
	cnt := 0
	var sum, sumSq float64
	for _, l := range t.Links() {
		if !ud.IsSwitchLink(t.Link(l.ID)) {
			continue
		}
		for d := 0; d < 2; d++ {
			v := loads[2*l.ID+d]
			cnt++
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			a.MaxChannelLoad = max(a.MaxChannelLoad, int(v))
		}
	}
	if cnt > 0 {
		mean := sum / float64(cnt)
		a.MeanChannelLoad = mean
		if mean > 0 {
			variance := max(sumSq/float64(cnt)-mean*mean, 0)
			a.LinkLoadCV = math.Sqrt(variance) / mean
			a.HotspotRatio = float64(a.MaxChannelLoad) / mean
		}
	}
	return a, nil
}

// pathCert accumulates the certificate of a set of switch paths fed to
// it hop by hop: it checks each hop's up*/down* legality at once and
// collects the channel dependencies that check tests for a cycle.
// Host-link channels cannot take part in a cycle (a host uplink has no
// incoming dependencies, a delivery link no outgoing ones, and an
// in-transit reset ends the chain), so only switch-switch hops are fed.
// One lane stores each channel's successors as a bitmask of output
// ports at its far switch, O(channels) memory where an explicit edge
// set would need O(channels^2) at 4k hosts. More lanes name channels
// by (link direction, lane), which a port mask cannot, so they build
// the explicit CDG; lane counts are tiny and vc engines route small
// topologies.
type pathCert struct {
	t    *topology.Topology
	succ []uint64 // one lane: successor port mask per chanIndex
	cdg  *CDG     // more lanes
	// The current path: the channel the packet holds, if held; the
	// lane on the wire; and whether the segment on that lane has taken
	// a down hop, after which only down hops are legal.
	held   bool
	prev   Channel
	lane   uint8
	downed bool
}

func newPathCert(t *topology.Topology, lanes int) *pathCert {
	if lanes > 1 {
		return &pathCert{t: t, cdg: &CDG{edges: make(map[Channel]map[Channel]bool)}}
	}
	return &pathCert{t: t, succ: make([]uint64, 2*len(t.Links()))}
}

// start begins a path, or its next segment after an in-transit reset
// (the packet is consumed at the in-transit host, so it holds nothing,
// and its re-injection is a fresh entry): lane 0, no direction history.
func (c *pathCert) start() { c.held, c.lane, c.downed = false, 0, false }

// hop records the traversal of switch-switch link l from switch from
// on lane; down tells whether it is a down hop under the orientation.
// A lane change starts a fresh direction history. It returns an error
// for an up hop after a down hop on the same lane, and for a one-lane
// switch port beyond the 64-bit successor mask.
func (c *pathCert) hop(l *topology.Link, from topology.NodeID, lane uint8, down bool) error {
	if lane != c.lane {
		c.lane, c.downed = lane, false
	}
	if c.downed && !down {
		return fmt.Errorf("routing: illegal down->up transition at link %d", l.ID)
	}
	c.downed = down
	ch := Channel{LinkID: l.ID, From: from, Lane: lane}
	if c.held {
		if c.cdg != nil {
			c.cdg.addEdge(c.prev, ch)
		} else {
			p := l.PortAt(from)
			if p >= 64 {
				return fmt.Errorf("routing: switch radix %d exceeds the 64-port CDG mask limit", p+1)
			}
			c.succ[chanIndex(c.t.Link(c.prev.LinkID), c.prev.From)] |= 1 << p
		}
	}
	c.prev, c.held = ch, true
	return nil
}

// check returns an error naming a channel dependency cycle of the
// paths fed so far, or nil when there is none.
func (c *pathCert) check() error {
	if c.cdg != nil {
		if cyc := c.cdg.FindCycle(); cyc != nil {
			return fmt.Errorf("routing: channel dependency cycle of length %d: %v", len(cyc)-1, cyc)
		}
		return nil
	}
	// Iterative three-colour DFS over the implicit channel graph.
	const (
		gray  = 1
		black = 2
	)
	color := make([]byte, len(c.succ))
	type frame struct {
		ch   int32
		rest uint64
	}
	var stack []frame
	for c0 := range c.succ {
		if color[c0] != 0 {
			continue
		}
		if c.succ[c0] == 0 {
			color[c0] = black
			continue
		}
		color[c0] = gray
		stack = append(stack[:0], frame{int32(c0), c.succ[c0]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.rest == 0 {
				color[f.ch] = black
				stack = stack[:len(stack)-1]
				continue
			}
			p := bits.TrailingZeros64(f.rest)
			f.rest &^= 1 << p
			// Expand: the channel arrives at w; bit p is the output port
			// of the dependent channel there.
			l := c.t.Link(int(f.ch / 2))
			w := l.NodeAt(f.ch%2 != 0) // from == A end for even index
			nl := c.t.LinkAt(w, p)
			nc := chanIndex(nl, w)
			switch color[nc] {
			case gray:
				return fmt.Errorf("routing: channel dependency cycle through link %d (from switch %d), %d channels on the gray path",
					nl.ID, w, len(stack))
			case 0:
				color[nc] = gray
				stack = append(stack, frame{nc, c.succ[nc]})
			}
		}
	}
	return nil
}

// chanIndex maps a directed link traversal to its channel index:
// 2*linkID for the A->B direction, 2*linkID+1 for B->A.
func chanIndex(l *topology.Link, from topology.NodeID) int32 {
	if from == l.A {
		return int32(2 * l.ID)
	}
	return int32(2*l.ID + 1)
}
