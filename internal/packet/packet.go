// Package packet implements the Myrinet wire format used by the GM
// software and the In-Transit Buffer (ITB) extension the paper adds
// to it.
//
// An original Myrinet packet (paper, Figure 3.a) is:
//
//	[route bytes][2-byte type][payload][CRC]
//
// Each switch on the path consumes the leading route byte to select an
// output port, so by the time the packet reaches a NIC the route is
// gone and the leading two bytes identify the packet type.
//
// An ITB packet (Figure 3.b) carries several up*/down* sub-paths. In
// front of every sub-path after the first, the header holds an ITB tag
// byte and the length of the remaining path, so that the MCP at an
// in-transit host can identify the packet and re-inject it as soon as
// possible:
//
//	[path1][ITB][len][path2]...[2-byte type][payload][CRC]
package packet

import (
	"errors"
	"fmt"
)

// Type identifies what a packet carries once its route bytes have been
// consumed. GM types are assigned by Myricom; the ITB type is the new
// type the paper requests.
type Type uint16

const (
	// TypeGM is a normal GM message packet.
	TypeGM Type = 0x0001
	// TypeMapping is a packet of the Myrinet mapper.
	TypeMapping Type = 0x0002
	// TypeIP carries an IP packet in its payload.
	TypeIP Type = 0x0003
	// TypeITB marks an in-transit packet: the receiving MCP must
	// re-inject it using the rest of the route in its header.
	TypeITB Type = 0x00B7
	// TypeAck is a GM-level acknowledgement (part of GM's reliable
	// ordered delivery).
	TypeAck Type = 0x0004
)

// String returns a short name for the packet type.
func (t Type) String() string {
	switch t {
	case TypeGM:
		return "GM"
	case TypeMapping:
		return "MAP"
	case TypeIP:
		return "IP"
	case TypeITB:
		return "ITB"
	case TypeAck:
		return "ACK"
	default:
		return fmt.Sprintf("Type(%#04x)", uint16(t))
	}
}

// ITBTag is the in-header marker byte that precedes each in-transit
// segment boundary. Route bytes are small port indexes, so a high
// value cannot collide with a port selector on any 8/16-port switch.
const ITBTag byte = 0xFE

// VCTag is the in-header marker byte that precedes a virtual-channel
// lane selector: the pair [VCTag][lane] tells the next switch to move
// the packet onto the given lane before consuming its output-port
// byte. Like ITBTag it sits above any real port index, and the lane
// byte that follows is a small lane index (never 0xFE), so the two
// marker namespaces cannot shadow each other inside a route.
const VCTag byte = 0xFD

// MaxRouteLen bounds the number of route bytes in one header. Myrinet
// headers are small; 32 hops is far beyond any path our topologies
// produce.
const MaxRouteLen = 32

// Errors returned by Parse and Validate.
var (
	ErrShort       = errors.New("packet: truncated packet")
	ErrBadCRC      = errors.New("packet: payload CRC mismatch")
	ErrBadHeadCRC  = errors.New("packet: header CRC mismatch")
	ErrRouteTooBig = errors.New("packet: route exceeds MaxRouteLen")
	ErrBadITB      = errors.New("packet: malformed ITB header")
	ErrBadVC       = errors.New("packet: malformed VC lane marker")
)

// Packet is the parsed, in-memory form of a Myrinet packet. The
// simulator moves *Packet values around instead of re-encoding bytes
// at every hop, but Encode/Parse implement the real wire layout and
// are exercised by the NIC model at injection and ejection points.
type Packet struct {
	// Route holds the remaining route. For an ITB packet this is the
	// concatenation of the remaining sub-paths with ITBTag+length
	// markers between them, exactly as on the wire.
	Route []byte
	// Type is the packet type seen by the NIC when Route is empty.
	Type Type
	// Payload is the user data (for TypeGM) or control data.
	Payload []byte

	// Simulation bookkeeping, not part of the wire format.
	Src, Dst         int    // host ids
	SrcPort, DstPort uint8  // GM port numbers
	Seq              uint32 // GM sequence number for reliable delivery
	MsgID            uint32 // message the fragment belongs to
	FragIndex        int    // fragment number within the message
	LastFrag         bool   // final fragment of its message
	ITBsTaken        int    // in-transit hops already performed
	ID               uint64 // unique id for tracing
	// Incarnation is the GM connection's session number: the
	// route-table epoch at which a resurrected sender restarted its
	// stream from seq 0, so receivers can tell a genuinely new stream
	// from a retransmitted old one. It moves only on resurrection, not
	// at every table epoch: tables republish without connections
	// dying.
	Incarnation uint32
	// Corrupt marks an injected fault: the payload CRC will fail at
	// the destination NIC. Cut-through forwarding cannot detect it at
	// in-transit hosts (the tail has not arrived when the header is
	// re-injected), so the flag survives ITB hops.
	Corrupt bool
	// Gossip is an encoded membership digest (see AppendGossipDigest)
	// piggybacked on the packet header by the decentralized failure
	// detector, consumed — not stripped — at in-transit hosts so one
	// stamped packet seeds every ITB host it crosses. The bytes are
	// written once by the stamping agent and treated as read-only
	// thereafter: clones share the backing array. Nil outside gossip
	// mode, so monitor-mode wire timing is untouched.
	Gossip []byte

	// pooled marks a packet checked out of the packet pool (Get or
	// ClonePooled). Recycle uses it to release drop-path packets
	// without knowing their provenance; Put clears it.
	pooled bool
	// routeBuf is the route storage the packet owns. SetRoute and
	// CloneInto write the route into it, and Put keeps it for the
	// packet's next life: Route itself is resliced from the front as
	// switches consume its bytes, so its capacity shrinks in flight.
	routeBuf []byte
}

// SetRoute copies r into the packet's own route storage, reusing its
// capacity, and makes the copy the packet's route.
func (p *Packet) SetRoute(r []byte) {
	p.routeBuf = append(p.routeBuf[:0], r...)
	p.Route = p.routeBuf
}

// HeaderOverhead is the fixed non-payload byte count of a packet with
// no route bytes left: 2 type bytes + 4 CRC bytes (we use a 32-bit
// payload CRC plus the 1-byte header CRC Myrinet appends per hop; the
// header CRC is modelled inside the route bytes' transfer time).
const HeaderOverhead = 2 + 4

// WireLen returns the current on-the-wire length in bytes: remaining
// route, type, payload, CRC, plus any piggybacked gossip digest. The
// length shrinks as switches consume route bytes, exactly as in
// Myrinet; the digest tax is charged for the whole flight, which is
// the honest cost of carrying detector traffic on data packets.
func (p *Packet) WireLen() int {
	return len(p.Route) + HeaderOverhead + len(p.Payload) + len(p.Gossip)
}

// Clone returns a deep copy of the packet. The fabric uses it when a
// packet is both delivered and retained (e.g. for retransmission).
func (p *Packet) Clone() *Packet {
	q := *p
	q.Route = append([]byte(nil), p.Route...)
	q.routeBuf = q.Route
	q.Payload = append([]byte(nil), p.Payload...)
	q.pooled = false // heap clone: never pool-released
	return &q
}

// ConsumeRouteByte removes and returns the leading route byte, as a
// switch does when it routes the packet. It panics if no route bytes
// remain, which would be a routing bug.
func (p *Packet) ConsumeRouteByte() byte {
	if len(p.Route) == 0 {
		panic("packet: route exhausted")
	}
	b := p.Route[0]
	p.Route = p.Route[1:]
	return b
}

// AtITBBoundary reports whether the leading route byte is an ITB tag,
// i.e. the packet has just arrived at an in-transit host and the rest
// of the route describes the next sub-path(s).
func (p *Packet) AtITBBoundary() bool {
	return len(p.Route) >= 2 && p.Route[0] == ITBTag
}

// PopITBHeader consumes the ITB tag and remaining-path length at an
// in-transit host and returns the declared remaining path length. It
// returns an error if the header is malformed or the declared length
// disagrees with the remaining route bytes.
func (p *Packet) PopITBHeader() (remaining int, err error) {
	if !p.AtITBBoundary() {
		return 0, ErrBadITB
	}
	remaining = int(p.Route[1])
	p.Route = p.Route[2:]
	if remaining != len(p.Route) {
		return remaining, fmt.Errorf("%w: declared remaining path %d, have %d route bytes",
			ErrBadITB, remaining, len(p.Route))
	}
	p.ITBsTaken++
	return remaining, nil
}

// AtVCBoundary reports whether the leading route byte is a
// virtual-channel tag, i.e. the next switch must consume a
// [VCTag][lane] pair and move the packet onto that lane before
// reading its port byte.
func (p *Packet) AtVCBoundary() bool {
	return len(p.Route) >= 2 && p.Route[0] == VCTag
}

// PeekVCLane returns the lane selected by a leading [VCTag][lane]
// pair without consuming it, and whether one is present.
func (p *Packet) PeekVCLane() (byte, bool) {
	if !p.AtVCBoundary() {
		return 0, false
	}
	return p.Route[1], true
}

// RouteIsDelivered reports whether all route bytes (and ITB segments)
// are consumed, i.e. the packet is at its final destination NIC.
func (p *Packet) RouteIsDelivered() bool { return len(p.Route) == 0 }

// ITBsRemaining counts the in-transit hops still ahead on the route.
func (p *Packet) ITBsRemaining() int {
	n := 0
	for i := 0; i+1 < len(p.Route); i++ {
		if p.Route[i] == ITBTag {
			n++
			i++ // skip length byte
		}
	}
	return n
}

// NextSegmentLen returns the number of route bytes before the next ITB
// boundary (or the end of the route).
func (p *Packet) NextSegmentLen() int {
	for i := 0; i < len(p.Route); i++ {
		if p.Route[i] == ITBTag {
			return i
		}
	}
	return len(p.Route)
}

// String summarises the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %d->%d len=%dB route=%d itb=%d",
		p.ID, p.Type, p.Src, p.Dst, len(p.Payload), len(p.Route), p.ITBsRemaining())
}
