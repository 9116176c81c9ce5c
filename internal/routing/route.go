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
// A Route is a view, returned by value, of what its table stores: the
// switch pair's path record (the wire header with its in-transit split
// points and lane tags) and the host pair's ejection ports. The wire
// header is written from those (AppendHeader); the segments, the
// switch and link paths, the in-transit hosts and the lanes are
// decoded from them over the topology.
type Route struct {
	Src, Dst topology.NodeID
	// store is the path store that holds the route's path record, and
	// rec the host pair's record; a zero Route has neither.
	store *pathStore
	rec   pair
}

// path returns the route's path record.
func (r Route) path() *swPath { return r.store.at(r.rec.path - 1) }

// hdr returns the header template of the route's path.
func (r Route) hdr() []byte { return r.store.hdr(r.path()) }

// NumITBs returns how many in-transit buffers the route uses.
func (r Route) NumITBs() int {
	if r.store == nil {
		return 0
	}
	return int(r.path().nitbs)
}

// ejectPort returns the ejection port byte of the k-th in-transit host
// of the route, whose path is p.
func (r Route) ejectPort(p *swPath, k int) byte {
	if p.nitbs <= inlineEjects {
		return r.rec.ejectAt(k)
	}
	return r.store.ejects[int(r.rec.ejects)+k]
}

// itbHost returns the k-th in-transit host: the host cabled to the
// k-th in-transit switch at the route's ejection port.
func (r Route) itbHost(k int) topology.NodeID {
	p := r.path()
	sw := topology.NodeID(r.store.itbs(p)[k].sw)
	return r.store.g.t.LinkAt(sw, int(r.ejectPort(p, k))).Other(sw)
}

// ITBHosts lists the in-transit hosts, one per segment boundary, in a
// new slice (nil when the route has none).
func (r Route) ITBHosts() []topology.NodeID {
	n := r.NumITBs()
	if n == 0 {
		return nil
	}
	out := make([]topology.NodeID, n)
	for k := range out {
		out[k] = r.itbHost(k)
	}
	return out
}

// appendHeader appends the route's wire header to buf: the path's
// template with each ejection port and the delivery port into Dst
// written in.
func (r Route) appendHeader(buf []byte) []byte {
	p, n := r.path(), len(buf)
	buf = append(buf, r.store.hdr(p)...)
	hdr := buf[n:]
	if p.nitbs > 0 {
		for k, sp := range r.store.itbs(p) {
			hdr[sp.at] = r.ejectPort(p, k)
		}
	}
	g := r.store.g
	hdr[len(hdr)-1] = g.deliver[r.Dst-g.hostLo]
	return buf
}

// Traversal is one directed use of a link.
type Traversal struct {
	Link *topology.Link
	From topology.NodeID
}

// To returns the node the traversal arrives at.
func (tr Traversal) To() topology.NodeID { return tr.Link.Other(tr.From) }

// hopWalk decodes a route over its topology, one link traversal per
// step with the virtual-channel lane it rides: the host link out of Src
// on lane 0, a hop per port byte on the lane the header last selected,
// the ejection into each in-transit host on the current lane and the
// re-injection out of it on lane 0, and the delivery into Dst. It reads
// the path's template, taking each ejection port from the route, and
// allocates nothing.
type hopWalk struct {
	r Route
	// p is the route's path and hdr its template (nil for a zero
	// Route).
	p   *swPath
	hdr []byte
	// i indexes the next template byte, and k the next in-transit
	// host; cur is the switch the packet is at and lane the lane it
	// rides.
	i, k int
	cur  topology.NodeID
	lane uint8
	// ejected is the host link of an ejection whose re-injection is
	// the next step.
	ejected *topology.Link
	started bool
}

// walk returns a hopWalk over r's traversals.
func (r Route) walk() hopWalk {
	if r.store == nil {
		return hopWalk{}
	}
	p := r.path()
	return hopWalk{r: r, p: p, hdr: r.store.hdr(p)}
}

// next returns the next traversal and its lane; ok is false once the
// delivery into Dst has been returned.
func (w *hopWalk) next() (tr Traversal, lane uint8, ok bool) {
	hdr := w.hdr
	if len(hdr) == 0 {
		return Traversal{}, 0, false
	}
	t := w.r.store.g.t
	if !w.started {
		w.started = true
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
			switch {
			case w.i == len(hdr):
				// The delivery into Dst.
				return Traversal{Link: t.LinkAt(w.r.Dst, 0), From: w.cur}, w.lane, true
			case hdr[w.i] == packet.ITBTag:
				w.ejected = t.LinkAt(w.cur, int(w.r.ejectPort(w.p, w.k)))
				w.k++
				return Traversal{Link: w.ejected, From: w.cur}, w.lane, true
			}
			tr = Traversal{Link: t.LinkAt(w.cur, int(b)), From: w.cur}
			w.cur = tr.To()
			return tr, w.lane, true
		}
	}
	return Traversal{}, 0, false
}

// SwitchCrossings returns the number of switch traversals, counting
// repeats (the metric the paper equalises between compared paths):
// one per port byte of the header.
func (r Route) SwitchCrossings() int {
	if r.store == nil {
		return 0
	}
	hdr, n := r.hdr(), 0
	for i := 0; i < len(hdr); i++ {
		if b := hdr[i]; b == packet.ITBTag || b == packet.VCTag {
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
func (r Route) PortTypeMix() (san, lan int) {
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

// Segments returns the per-segment switch output port bytes, lane
// pairs included, as capped sub-slices of a newly written header.
func (r Route) Segments() [][]byte {
	if r.store == nil || len(r.hdr()) == 0 {
		return nil
	}
	hdr := r.appendHeader(make([]byte, 0, len(r.hdr())))
	segs := make([][]byte, 0, r.NumITBs()+1)
	start := 0
	for i := 0; i < len(hdr); i++ {
		switch hdr[i] {
		case packet.ITBTag:
			segs = append(segs, hdr[start:i:i])
			start = i + 2
			i++
		case packet.VCTag:
			i++
		}
	}
	return append(segs, hdr[start:len(hdr):len(hdr)])
}

// SwitchPath returns the full sequence of switches traversed, in
// order, counting revisits: an in-transit host's switch appears again
// after the re-injection. Its length is SwitchCrossings.
func (r Route) SwitchPath() []topology.NodeID {
	out := make([]topology.NodeID, 0, r.SwitchCrossings())
	w := r.walk()
	for tr, _, ok := w.next(); ok; tr, _, ok = w.next() {
		if to := tr.To(); r.store.g.t.Node(to).Kind == topology.KindSwitch {
			out = append(out, to)
		}
	}
	return out
}

// LinkPath returns the directed traversal of every link in order,
// including the host links at the ends and around each ITB.
func (r Route) LinkPath() []Traversal {
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
func (r Route) Lanes() []uint8 {
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

// AppendHeader appends the wire route bytes for the packet header to
// buf and returns the extended slice: the first segment's port bytes,
// then for each further segment an ITB tag, the remaining length, and
// the segment's bytes (Figure 3.b). It allocates nothing when buf has
// room for packet.MaxRouteLen more bytes. A header longer than
// packet.MaxRouteLen is reported as packet.ErrRouteTooBig, with buf
// returned unchanged.
//
// The bytes are the caller's: a table keeps no header to share, so
// whoever sends them owns them for as long as the send needs them.
func (r Route) AppendHeader(buf []byte) ([]byte, error) {
	if r.path().hdrLen > packet.MaxRouteLen {
		return buf, packet.ErrRouteTooBig
	}
	return r.appendHeader(buf), nil
}

// EncodeHeader returns the wire route bytes (see AppendHeader) in a
// new, exactly sized slice.
func (r Route) EncodeHeader() ([]byte, error) {
	n := int(r.path().hdrLen)
	if n > packet.MaxRouteLen {
		return nil, packet.ErrRouteTooBig
	}
	return r.appendHeader(make([]byte, 0, n)), nil
}

// String renders the route compactly for traces and the mapper tool.
func (r Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d->%d:", r.Src, r.Dst)
	for i, seg := range r.Segments() {
		if i > 0 {
			fmt.Fprintf(&b, " |ITB@%d|", r.itbHost(i-1))
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
func (r Route) Validate(t *topology.Topology, ud *topology.UpDown) error {
	segs := r.Segments()
	if len(segs) == 0 {
		return fmt.Errorf("routing: route %d->%d has no segments", r.Src, r.Dst)
	}
	if r.NumITBs() != len(segs)-1 {
		return fmt.Errorf("routing: %d segments but %d ITB hosts", len(segs), r.NumITBs())
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
			if itbIdx >= r.NumITBs() || r.itbHost(itbIdx) != to {
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
	if itbIdx != r.NumITBs() {
		return fmt.Errorf("routing: link path visits %d ITBs, route declares %d", itbIdx, r.NumITBs())
	}
	return nil
}
