// Package routing implements the route computation the Myrinet mapper
// performs, in both its stock form (up*/down* source routes,
// UpDownRouting) and the paper's modified form (minimal routes
// legalised with In-Transit Buffers, ITBRouting), plus the
// channel-dependency analysis that proves the resulting route sets
// deadlock free. Every route set comes from an Engine; those two are
// UpDownEngine values.
package routing

import (
	"fmt"
	"strings"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Route is a source route between two hosts. A route consists of one
// or more up*/down*-legal segments; consecutive segments are separated
// by an ejection/re-injection at an in-transit host.
//
// The wire header is the route's only stored form, as it is in the
// NIC: the segments, the switch and link paths and the lanes are views
// decoded from it over the topology.
type Route struct {
	Src, Dst topology.NodeID
	// ITBHosts lists the in-transit hosts, one per segment boundary.
	ITBHosts []topology.NodeID
	// hdr is the wire header (Figure 3.b): each segment's switch output
	// port bytes, the segments after the first each preceded by an ITB
	// tag and a length byte, with [VCTag][lane] pairs wherever the lane
	// changes. Segment i ends by delivering the packet into
	// ITBHosts[i] (or Dst for the last segment).
	hdr []byte
	// topo is the topology the header's port bytes index.
	topo *topology.Topology
}

// Traversal is one directed use of a link.
type Traversal struct {
	Link *topology.Link
	From topology.NodeID
}

// To returns the node the traversal arrives at.
func (tr Traversal) To() topology.NodeID { return tr.Link.Other(tr.From) }

// hopWalk decodes a route's header over its topology, one link
// traversal per step with the virtual-channel lane it rides: the host
// link out of Src on lane 0, a hop per port byte on the lane the header
// last selected, the ejection into each in-transit host on the current
// lane and the re-injection out of it on lane 0, and the delivery into
// Dst. It allocates nothing.
type hopWalk struct {
	r *Route
	// i indexes the next header byte; cur is the switch the packet is
	// at and lane the lane it rides.
	i    int
	cur  topology.NodeID
	lane uint8
	// ejected is the host link of an ejection whose re-injection is
	// the next step.
	ejected *topology.Link
	started bool
}

// walk returns a hopWalk over r's traversals.
func (r *Route) walk() hopWalk { return hopWalk{r: r} }

// next returns the next traversal and its lane; ok is false once the
// delivery into Dst has been returned.
func (w *hopWalk) next() (tr Traversal, lane uint8, ok bool) {
	t, hdr := w.r.topo, w.r.hdr
	if !w.started {
		w.started = true
		if len(hdr) == 0 {
			return Traversal{}, 0, false
		}
		l := t.LinkAt(w.r.Src, 0)
		w.cur = l.Other(w.r.Src)
		return Traversal{Link: l, From: w.r.Src}, 0, true
	}
	if l := w.ejected; l != nil {
		// The re-injection is a fresh lane-0 entry into the same switch.
		w.ejected, w.lane = nil, 0
		return Traversal{Link: l, From: l.Other(w.cur)}, 0, true
	}
	for w.i < len(hdr) {
		switch b := hdr[w.i]; b {
		case packet.ITBTag:
			w.i += 2 // the tag and the length byte
		case packet.VCTag:
			w.lane = hdr[w.i+1]
			w.i += 2
		default:
			w.i++
			l := t.LinkAt(w.cur, int(b))
			tr = Traversal{Link: l, From: w.cur}
			switch {
			case w.i == len(hdr):
				// The delivery into Dst.
			case hdr[w.i] == packet.ITBTag:
				w.ejected = l
			default:
				w.cur = l.Other(w.cur)
			}
			return tr, w.lane, true
		}
	}
	return Traversal{}, 0, false
}

// NumITBs returns how many in-transit buffers the route uses.
func (r *Route) NumITBs() int { return len(r.ITBHosts) }

// SwitchCrossings returns the number of switch traversals, counting
// repeats (the metric the paper equalises between compared paths):
// one per port byte of the header.
func (r *Route) SwitchCrossings() int {
	n := 0
	for i := 0; i < len(r.hdr); i++ {
		if b := r.hdr[i]; b == packet.ITBTag || b == packet.VCTag {
			i++
			continue
		}
		n++
	}
	return n
}

// PortTypeMix counts traversed switch ports by type, counting both the
// input and output port of every switch crossing, since per the paper
// the latency through a switch depends on the type of traversed ports.
func (r *Route) PortTypeMix() (san, lan int) {
	w := r.walk()
	for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
		if tr.Link.Type == topology.SAN {
			san++
		} else {
			lan++
		}
	}
	return san, lan
}

// Segments returns the per-segment switch output port bytes as capped
// sub-slices of the header, lane pairs included. They alias the
// header and must not be modified.
func (r *Route) Segments() [][]byte {
	if len(r.hdr) == 0 {
		return nil
	}
	segs := make([][]byte, 0, r.NumITBs()+1)
	start := 0
	for i := 0; i < len(r.hdr); i++ {
		switch r.hdr[i] {
		case packet.ITBTag:
			segs = append(segs, r.hdr[start:i:i])
			start = i + 2
			i++
		case packet.VCTag:
			i++
		}
	}
	return append(segs, r.hdr[start:len(r.hdr):len(r.hdr)])
}

// SwitchPath returns the full sequence of switches traversed, in
// order, counting revisits: an in-transit host's switch appears again
// after the re-injection. Its length is SwitchCrossings.
func (r *Route) SwitchPath() []topology.NodeID {
	out := make([]topology.NodeID, 0, r.SwitchCrossings())
	w := r.walk()
	for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
		if to := tr.To(); r.topo.Node(to).Kind == topology.KindSwitch {
			out = append(out, to)
		}
	}
	return out
}

// LinkPath returns the directed traversal of every link in order,
// including the host links at the ends and around each ITB.
func (r *Route) LinkPath() []Traversal {
	out := make([]Traversal, 0, r.SwitchCrossings()+1+r.NumITBs())
	w := r.walk()
	for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
		out = append(out, tr)
	}
	return out
}

// Lanes returns the virtual-channel lane of each LinkPath traversal,
// or nil when the whole route rides lane 0 (every route of a lane-less
// engine).
func (r *Route) Lanes() []uint8 {
	var out []uint8
	k := 0
	w := r.walk()
	for _, lane, ok := w.next(); ok; _, lane, ok = w.next() {
		if lane != 0 && out == nil {
			out = make([]uint8, k, r.SwitchCrossings()+1+r.NumITBs())
		}
		if out != nil {
			out = append(out, lane)
		}
		k++
	}
	return out
}

// EncodeHeader returns the wire route bytes for the packet header: the
// first segment's port bytes, then for each further segment an ITB
// tag, the remaining length, and the segment's bytes (Figure 3.b). A
// header longer than packet.MaxRouteLen is reported as
// packet.ErrRouteTooBig.
//
// It returns the route's own header without allocating. The header is
// shared by every caller and must be treated as read-only: copy it
// into the packet (append(pkt.Route, hdr...)).
func (r *Route) EncodeHeader() ([]byte, error) {
	if len(r.hdr) > packet.MaxRouteLen {
		return nil, packet.ErrRouteTooBig
	}
	return r.hdr, nil
}

// String renders the route compactly for traces and the mapper tool.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d->%d:", r.Src, r.Dst)
	for i, seg := range r.Segments() {
		if i > 0 {
			fmt.Fprintf(&b, " |ITB@%d|", r.ITBHosts[i-1])
		}
		fmt.Fprintf(&b, " %v", seg)
	}
	fmt.Fprintf(&b, " (switches=%d itbs=%d)", r.SwitchCrossings(), r.NumITBs())
	return b.String()
}

// Validate checks internal consistency: segments non-empty, one
// in-transit host per segment boundary, ejections into exactly those
// hosts along the link path, and every segment independently obeying
// up*/down* under the supplied orientation (nil to skip the link-path
// checks).
func (r *Route) Validate(t *topology.Topology, ud *topology.UpDown) error {
	segs := r.Segments()
	if len(segs) == 0 {
		return fmt.Errorf("routing: route %d->%d has no segments", r.Src, r.Dst)
	}
	if len(r.ITBHosts) != len(segs)-1 {
		return fmt.Errorf("routing: %d segments but %d ITB hosts", len(segs), len(r.ITBHosts))
	}
	for i, seg := range segs {
		if len(seg) == 0 {
			return fmt.Errorf("routing: empty segment %d", i)
		}
	}
	if ud == nil {
		return nil
	}
	// Walk the link path segment by segment; at each ejection the
	// direction history resets — that is the whole point of ITBs. A
	// lane change also resets it: each lane's sub-segments must be
	// legal independently (the per-lane LASH argument), but crossing
	// onto a fresh lane starts a fresh dependency chain.
	var prev *topology.Direction
	itbIdx := 0
	prevLane := uint8(0)
	w := r.walk()
	for tr, lane, ok := w.next(); ok; tr, lane, ok = w.next() {
		if lane != prevLane {
			prevLane = lane
			prev = nil
		}
		to := tr.To()
		if t.Node(to).Kind == topology.KindHost && to != r.Dst {
			// Ejection into an in-transit host.
			if itbIdx >= len(r.ITBHosts) || r.ITBHosts[itbIdx] != to {
				return fmt.Errorf("routing: unexpected ejection at host %d", to)
			}
			itbIdx++
			prev = nil
			prevLane = 0
			continue
		}
		if !ud.IsSwitchLink(tr.Link) {
			continue // host link at either end
		}
		dir := ud.DirectionOf(tr.Link, tr.From)
		if !topology.LegalTransition(prev, dir) {
			return fmt.Errorf("routing: illegal down->up transition at link %d (route %s)", tr.Link.ID, r)
		}
		d := dir
		prev = &d
	}
	if itbIdx != len(r.ITBHosts) {
		return fmt.Errorf("routing: link path visits %d ITBs, route declares %d", itbIdx, len(r.ITBHosts))
	}
	return nil
}
