package routing

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/topology"
)

// Compact route encoding
//
// The map-of-pointers Table is the faithful model of per-NIC SRAM
// route storage, but at thousands of hosts the host-pair map dominates
// memory and build time while carrying no information beyond the
// switch-pair paths (host pairs on the same switch pair share one
// path). The CompactTable therefore stores switch-pair paths only, in
// struct-of-arrays form: one shared byte arena holding every encoded
// path back to back, and a flat prefix-offset array indexing it by
// (srcSwitch, dstSwitch).
//
// A path is encoded the way a Myrinet source route is: one output-port
// byte per switch crossing. In-transit resets embed as a two-byte
// stepITB marker followed by the ejection port (the port of the
// in-transit host at the reset switch); the re-injection crosses the
// same port back, so one byte determines both. Virtual-lane changes
// embed as a two-byte stepVC marker followed by the lane for the
// subsequent hops (mirroring the packet-header [VCTag][lane] pairs;
// the lane resets to 0 at every re-injection). Port numbers are
// consequently capped at maxCompactPort.
const (
	// stepITB marks an in-transit ejection/re-injection; the next byte
	// is the ejection port at the current switch.
	stepITB = 0xFF
	// stepVC marks a virtual-lane change; the next byte is the lane.
	stepVC = 0xFE
	// maxCompactPort is the largest encodable port number.
	maxCompactPort = 0xFD
)

// CompactTable is the struct-of-arrays switch-pair route store built
// by a routing engine. Pair (i, j) of an S-switch topology occupies
// steps[off[i*S+j]:off[i*S+j+1]]; an empty slice means "same switch"
// on the diagonal and "unreachable under the exclusion set" off it
// (only possible for fault-aware builds).
type CompactTable struct {
	// EngineName records which engine built the table.
	EngineName string

	t     *topology.Topology
	ud    *topology.UpDown
	avoid *Avoid
	sws   []topology.NodeID
	sidx  []int32
	off   []uint32
	steps []byte
	// lanes is the virtual-lane count of the engine that built the
	// table; 1 is the single-lane Myrinet configuration.
	lanes int
}

// Lanes returns the table's virtual-lane count.
func (ct *CompactTable) Lanes() int { return ct.lanes }

// NumSwitches returns the switch count S; the table covers S*S pairs.
func (ct *CompactTable) NumSwitches() int { return len(ct.sws) }

// Switch returns the node id of switch index i.
func (ct *CompactTable) Switch(i int) topology.NodeID { return ct.sws[i] }

// SwitchIndex returns the table index of a switch node id, or -1.
func (ct *CompactTable) SwitchIndex(id topology.NodeID) int {
	if int(id) >= len(ct.sidx) {
		return -1
	}
	return int(ct.sidx[id])
}

// Orientation returns the up*/down* orientation the table's paths are
// legal under (between in-transit resets).
func (ct *CompactTable) Orientation() *topology.UpDown { return ct.ud }

// PairSteps returns the encoded path for the switch pair (si, di). The
// slice aliases the shared arena and must not be modified.
func (ct *CompactTable) PairSteps(si, di int) []byte {
	idx := si*len(ct.sws) + di
	return ct.steps[ct.off[idx]:ct.off[idx+1]]
}

// SizeBytes returns the memory footprint of the route store proper
// (offsets plus step arena), the number the scaling study reports.
func (ct *CompactTable) SizeBytes() int {
	return 4*len(ct.off) + len(ct.steps)
}

// BuildCompact computes engine e's switch-pair CompactTable: one
// search per source switch, with each destination's path read from it
// by the goal rule the Table builds use, so both representations hold
// the same switch paths, and written straight into the arena.
// In-transit ejection ports are chosen by (src+dst) rotation over a
// switch's live hosts rather than the Table's least-loaded choice,
// spreading the in-transit load deterministically without per-pair
// state.
func BuildCompact(e Engine, t *topology.Topology, avoid *Avoid) (*CompactTable, error) {
	name := e.Name()
	if err := engineCheckTopology(name, t); err != nil {
		return nil, err
	}
	ud := e.Orientation(t)
	g, err := newEngineGraph(t, ud)
	if err != nil {
		return nil, err
	}
	s := e.search()
	n := len(g.sws)
	ct := &CompactTable{
		EngineName: name,
		t:          t,
		ud:         ud,
		avoid:      avoid,
		sws:        g.sws,
		sidx:       g.sidx,
		off:        make([]uint32, n*n+1),
		lanes:      int(s.lanes),
	}
	sl := &g.slot // the graph is this build's own: no lock needed
	for si := 0; si < n; si++ {
		sl.run(g, s, avoid, int32(si))
		for di := 0; di < n; di++ {
			ct.off[si*n+di] = uint32(len(ct.steps))
			if si == di {
				continue
			}
			st, goal := sl.goal(int32(di))
			if goal < 0 {
				if avoid == nil {
					return nil, fmt.Errorf("routing: engine %q: switch %d unreachable from %d", name, g.sws[di], g.sws[si])
				}
				continue
			}
			sl.buf = st.walk(goal, sl.buf)
			ct.steps = g.appendSteps(ct.steps, st, sl.buf, int32(s.lanes), sl.eject, si+di)
		}
	}
	ct.off[n*n] = uint32(len(ct.steps))
	return ct, nil
}

// forEachStep decodes pair (si, di), invoking hop for every
// switch-switch traversal, eject for every in-transit reset (link is
// the host link, host the in-transit host), and laneShift for every
// stepVC lane change, and checks that the path ends at di. Decoding is
// structural (see decode); legality is Validate's job.
func (ct *CompactTable) forEachStep(si, di int,
	hop func(l *topology.Link, from topology.NodeID) error,
	eject func(sw, host topology.NodeID, l *topology.Link) error,
	laneShift func(lane uint8) error) error {
	cur, err := ct.decode(ct.sws[si], ct.PairSteps(si, di), hop, eject, laneShift)
	if err != nil {
		return err
	}
	if cur != ct.sws[di] {
		return fmt.Errorf("routing: path for pair (%d, %d) ends at switch %d", ct.sws[si], ct.sws[di], cur)
	}
	return nil
}

// decode walks the step bytes of a path starting at switch cur with
// forEachStep's callbacks and returns the switch the path ends at. It
// is the arena's one decoder: ports must be cabled and lead to a node
// of the right kind, and lanes must lie within the table's lane count.
// It never panics on arbitrary bytes; malformed ones return an error.
func (ct *CompactTable) decode(cur topology.NodeID, steps []byte,
	hop func(l *topology.Link, from topology.NodeID) error,
	eject func(sw, host topology.NodeID, l *topology.Link) error,
	laneShift func(lane uint8) error) (topology.NodeID, error) {
	for i := 0; i < len(steps); i++ {
		b := steps[i]
		if b == stepITB {
			if i+1 >= len(steps) {
				return cur, fmt.Errorf("routing: truncated in-transit marker at switch %d", cur)
			}
			i++
			p := int(steps[i])
			if p >= ct.t.Node(cur).Ports {
				return cur, fmt.Errorf("routing: ejection port %d out of range at switch %d", p, cur)
			}
			l := ct.t.LinkAt(cur, p)
			if l == nil {
				return cur, fmt.Errorf("routing: ejection port %d of switch %d not cabled", p, cur)
			}
			host := l.Other(cur)
			if ct.t.Node(host).Kind != topology.KindHost {
				return cur, fmt.Errorf("routing: ejection port %d of switch %d leads to a switch", p, cur)
			}
			if eject != nil {
				if err := eject(cur, host, l); err != nil {
					return cur, err
				}
			}
			continue
		}
		if b == stepVC {
			if i+1 >= len(steps) {
				return cur, fmt.Errorf("routing: truncated lane marker at switch %d", cur)
			}
			i++
			lane := steps[i]
			if int(lane) >= ct.Lanes() {
				return cur, fmt.Errorf("routing: lane %d out of range at switch %d (table has %d)", lane, cur, ct.Lanes())
			}
			if laneShift != nil {
				if err := laneShift(lane); err != nil {
					return cur, err
				}
			}
			continue
		}
		p := int(b)
		if p >= ct.t.Node(cur).Ports {
			return cur, fmt.Errorf("routing: port %d out of range at switch %d", p, cur)
		}
		l := ct.t.LinkAt(cur, p)
		if l == nil {
			return cur, fmt.Errorf("routing: port %d of switch %d not cabled", p, cur)
		}
		if l.IsLoopback() || ct.t.Node(l.Other(cur)).Kind != topology.KindSwitch {
			return cur, fmt.Errorf("routing: port %d of switch %d is not a switch-switch hop", p, cur)
		}
		if hop != nil {
			if err := hop(l, cur); err != nil {
				return cur, err
			}
		}
		cur = l.Other(cur)
	}
	return cur, nil
}

// Validate checks the whole table: structural soundness of the offset
// array, decodability of every path, arrival at the right destination,
// up*/down* legality of every segment under the table's orientation
// (direction history resets at each in-transit ejection), liveness of
// every in-transit host under the exclusion set, and — for fault-free
// builds — all-pairs reachability.
func (ct *CompactTable) Validate() error {
	s := len(ct.sws)
	if len(ct.off) != s*s+1 {
		return fmt.Errorf("routing: offset array has %d entries, want %d", len(ct.off), s*s+1)
	}
	for i := 1; i < len(ct.off); i++ {
		if ct.off[i] < ct.off[i-1] {
			return fmt.Errorf("routing: offset array not monotonic at %d", i)
		}
	}
	if int(ct.off[s*s]) != len(ct.steps) {
		return fmt.Errorf("routing: offset array covers %d bytes, arena has %d", ct.off[s*s], len(ct.steps))
	}
	for si := 0; si < s; si++ {
		for di := 0; di < s; di++ {
			steps := ct.PairSteps(si, di)
			if si == di {
				if len(steps) != 0 {
					return fmt.Errorf("routing: non-empty path on diagonal pair %d", si)
				}
				continue
			}
			if len(steps) == 0 {
				if ct.avoid == nil {
					return fmt.Errorf("routing: engine %q left pair (%d, %d) unreachable on a connected topology",
						ct.EngineName, ct.sws[si], ct.sws[di])
				}
				continue // pair omitted under the exclusion set
			}
			var prev *topology.Direction
			err := ct.forEachStep(si, di,
				func(l *topology.Link, from topology.NodeID) error {
					dir := ct.ud.DirectionOf(l, from)
					if !topology.LegalTransition(prev, dir) {
						return fmt.Errorf("routing: illegal down->up transition at link %d", l.ID)
					}
					d := dir
					prev = &d
					if ct.avoid.avoidsLink(l.ID) {
						return fmt.Errorf("routing: path crosses excluded link %d", l.ID)
					}
					return nil
				},
				func(sw, host topology.NodeID, l *topology.Link) error {
					prev = nil // the in-transit buffer resets the history
					if ct.avoid.hostDead(ct.t, host) {
						return fmt.Errorf("routing: in-transit host %d is dead under the exclusion set", host)
					}
					return nil
				},
				func(lane uint8) error {
					prev = nil // fresh lane, fresh direction history
					return nil
				})
			if err != nil {
				return fmt.Errorf("routing: pair (%d, %d): %w", ct.sws[si], ct.sws[di], err)
			}
		}
	}
	return nil
}

// CheckDeadlockFree verifies Dally & Seitz acyclicity of the channel
// dependency graph induced by the table's paths. Host-link channels
// cannot participate in a cycle (a host uplink channel has no incoming
// dependencies and a downlink channel no outgoing ones, and in-transit
// ejections end the dependency chain by construction), so the check
// covers switch-switch channels only, with successor sets stored as
// per-channel output-port bitmasks — O(channels) memory instead of the
// O(channels^2) an explicit edge set would need at 4k hosts.
// Multi-lane tables take the lane-aware explicit-edge path instead.
func (ct *CompactTable) CheckDeadlockFree() error {
	if ct.Lanes() > 1 {
		return ct.checkDeadlockFreeLanes()
	}
	nCh := 2 * len(ct.t.Links())
	succ := make([]uint64, nCh)
	s := len(ct.sws)
	for si := 0; si < s; si++ {
		for di := 0; di < s; di++ {
			if si == di {
				continue
			}
			prev := int32(-1)
			err := ct.forEachStep(si, di,
				func(l *topology.Link, from topology.NodeID) error {
					if prev >= 0 {
						p := l.PortAt(from)
						if p >= 64 {
							return fmt.Errorf("routing: switch radix %d exceeds the 64-port CDG mask limit", p+1)
						}
						succ[prev] |= 1 << p
					}
					prev = chanIndex(l, from)
					return nil
				},
				func(sw, host topology.NodeID, l *topology.Link) error {
					prev = -1 // consumption at the in-transit buffer
					return nil
				},
				nil) // single-lane table: no stepVC markers decode
			if err != nil {
				return err
			}
		}
	}
	// Iterative three-colour DFS over the implicit channel graph.
	const (
		gray  = 1
		black = 2
	)
	color := make([]byte, nCh)
	type frame struct {
		ch   int32
		rest uint64
	}
	var stack []frame
	for c0 := 0; c0 < nCh; c0++ {
		if color[c0] != 0 {
			continue
		}
		if succ[c0] == 0 {
			color[c0] = black
			continue
		}
		color[c0] = gray
		stack = append(stack[:0], frame{int32(c0), succ[c0]})
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
			l := ct.t.Link(int(f.ch / 2))
			w := l.NodeAt(f.ch%2 != 0) // from == A end for even index
			nl := ct.t.LinkAt(w, p)
			nc := chanIndex(nl, w)
			switch color[nc] {
			case gray:
				return fmt.Errorf("routing: engine %q: channel dependency cycle through link %d (from switch %d), %d channels on the gray path",
					ct.EngineName, nl.ID, w, len(stack))
			case 0:
				color[nc] = gray
				stack = append(stack, frame{nc, succ[nc]})
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

// checkDeadlockFreeLanes is the multi-lane deadlock check: channels
// are (link direction, lane) pairs, which the port-bitmask trick of
// the flat path cannot name, so it builds the route-set CDG over them
// and searches it for a cycle. Lane counts are tiny (2–4) and vc
// tables are built for the ablation topologies, so the explicit edge
// sets are immaterial.
func (ct *CompactTable) checkDeadlockFreeLanes() error {
	g := &CDG{edges: make(map[Channel]map[Channel]bool)}
	s := len(ct.sws)
	for si := 0; si < s; si++ {
		for di := 0; di < s; di++ {
			if si == di {
				continue
			}
			var prev Channel
			held := false // whether the packet holds prev
			lane := uint8(0)
			err := ct.forEachStep(si, di,
				func(l *topology.Link, from topology.NodeID) error {
					ch := Channel{LinkID: l.ID, From: from, Lane: lane}
					if held {
						g.addEdge(prev, ch)
					}
					prev, held = ch, true
					return nil
				},
				func(sw, host topology.NodeID, l *topology.Link) error {
					held = false // consumption at the in-transit buffer
					lane = 0     // the re-injection is a fresh lane-0 entry
					return nil
				},
				func(nl uint8) error {
					lane = nl
					return nil
				})
			if err != nil {
				return err
			}
		}
	}
	if cyc := g.FindCycle(); cyc != nil {
		return fmt.Errorf("routing: engine %q: channel dependency cycle of length %d: %v", ct.EngineName, len(cyc)-1, cyc)
	}
	return nil
}

// CompactAnalysis summarises a CompactTable for the engine-comparison
// study: path quality (hops vs. minimal), in-transit cost, and the
// congestion structure (channel load spread, root pressure) that
// predicts saturation throughput.
type CompactAnalysis struct {
	Engine   string
	Switches int
	// Pairs counts the routed ordered switch pairs (off-diagonal,
	// non-omitted).
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
	// TableBytes is the route-store footprint.
	TableBytes int
}

// Analyze computes the CompactAnalysis. Cost is one plain BFS per
// switch (for minimal distances) plus one decode sweep of the arena.
func (ct *CompactTable) Analyze() (CompactAnalysis, error) {
	a := CompactAnalysis{Engine: ct.EngineName, Switches: len(ct.sws), TableBytes: ct.SizeBytes()}
	g, err := newEngineGraph(ct.t, ct.ud)
	if err != nil {
		return a, err
	}
	s := len(ct.sws)
	minDist := make([]int32, s)
	queue := make([]int32, 0, s)
	loads := make([]int32, 2*len(ct.t.Links()))
	totalHops := 0
	for si := 0; si < s; si++ {
		g.plainBFS(int32(si), ct.avoid, minDist, queue)
		for di := 0; di < s; di++ {
			if si == di || len(ct.PairSteps(si, di)) == 0 {
				continue
			}
			a.Pairs++
			hops, itbs := 0, 0
			root := false
			err := ct.forEachStep(si, di,
				func(l *topology.Link, from topology.NodeID) error {
					hops++
					loads[chanIndex(l, from)]++
					if from == ct.ud.Root || l.Other(from) == ct.ud.Root {
						root = true
					}
					return nil
				},
				func(sw, host topology.NodeID, l *topology.Link) error {
					itbs++
					return nil
				},
				nil) // lane changes don't affect path-quality metrics
			if err != nil {
				return a, err
			}
			totalHops += hops
			if hops > a.MaxHops {
				a.MaxHops = hops
			}
			a.TotalITBs += itbs
			if itbs > a.MaxITBs {
				a.MaxITBs = itbs
			}
			if int32(hops) == minDist[di] {
				a.MinimalFraction++
			}
			if root {
				a.RootFraction++
			}
		}
	}
	if a.Pairs > 0 {
		a.AvgHops = float64(totalHops) / float64(a.Pairs)
		a.AvgITBs = float64(a.TotalITBs) / float64(a.Pairs)
		a.MinimalFraction /= float64(a.Pairs)
		a.RootFraction /= float64(a.Pairs)
	}
	// Load statistics over directed switch-switch channels (including
	// idle ones: an engine that concentrates load leaves many at zero).
	n := 0
	var sum, sumSq float64
	for _, l := range ct.t.Links() {
		if !ct.ud.IsSwitchLink(ct.t.Link(l.ID)) {
			continue
		}
		for d := 0; d < 2; d++ {
			v := loads[2*l.ID+d]
			n++
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			if int(v) > a.MaxChannelLoad {
				a.MaxChannelLoad = int(v)
			}
		}
	}
	if n > 0 {
		mean := sum / float64(n)
		a.MeanChannelLoad = mean
		if mean > 0 {
			variance := sumSq/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			a.LinkLoadCV = math.Sqrt(variance) / mean
			a.HotspotRatio = float64(a.MaxChannelLoad) / mean
		}
	}
	return a, nil
}
