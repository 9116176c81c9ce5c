// Package fabric models the Myrinet network itself: wormhole switches,
// full-duplex links, source-route byte consumption, output-port
// arbitration, and the blocking behaviour (Stop&Go flow control, no
// virtual channels) that the ITB mechanism exploits.
//
// The model is event-driven at packet-header granularity. A packet's
// header advances switch by switch, paying a per-crossing fall-through
// delay plus per-port-type pipeline delays; the body streams behind it
// as a rigid snake. When the header blocks on a busy output channel
// the packet keeps holding every channel it has acquired — exactly the
// cascading-contention behaviour of virtual-channel-less wormhole
// networks that the paper's introduction describes. Ejecting a packet
// into an in-transit buffer frees those channels as the tail drains.
package fabric

import "repro/internal/units"

// Params sets the timing constants of the network. Defaults model the
// paper's testbed: Myrinet-1280 links (160 MB/s), M2FM-SW8 switches
// with SAN and LAN ports.
type Params struct {
	// LinkBandwidth is the per-link, per-direction data rate.
	LinkBandwidth units.Bandwidth
	// WireLatency is the cable propagation delay per traversal.
	WireLatency units.Time
	// FallThrough is the base switch routing delay per crossing
	// (reading the route byte, setting the crossbar).
	FallThrough units.Time
	// PortExtraSAN/PortExtraLAN are added per traversed port of each
	// type; LAN ports have a deeper synchronisation pipeline, which is
	// why the paper matches port types between compared paths.
	PortExtraSAN units.Time
	PortExtraLAN units.Time
	// BitErrorRate is the per-byte probability that a packet is
	// corrupted in flight (per link traversal). Corrupted packets
	// fail the CRC at the receiving NIC and are flushed; GM's
	// reliability layer retransmits them — the "robust in presence of
	// network faults" behaviour the paper attributes to GM. Zero
	// disables fault injection.
	BitErrorRate float64
	// FaultSeed seeds the fault process (defaults to a fixed seed for
	// reproducibility).
	FaultSeed int64
	// ProgressiveRelease frees each held channel as the packet tail
	// passes it (completion time minus the remaining pipeline delay)
	// instead of the default conservative hold-until-delivery. The
	// default slightly over-holds channels for short packets; this
	// option quantifies that modelling choice (see the model-fidelity
	// ablation).
	ProgressiveRelease bool
	// Lanes is the virtual-channel count per link direction: each
	// physical link carries this many independent flit lanes, each
	// with its own credit/grant accounting. 0 or 1 is the faithful
	// Myrinet configuration (no virtual channels) and is byte- and
	// alloc-identical to the pre-VC fabric. Routes select lanes with
	// in-header [VCTag][lane] pairs; a packet that never selects one
	// travels entirely on lane 0.
	Lanes int
}

// DefaultParams returns the calibrated testbed constants.
func DefaultParams() Params {
	return Params{
		LinkBandwidth: 160 * units.MBs,
		WireLatency:   10 * units.Nanosecond,
		FallThrough:   100 * units.Nanosecond,
		PortExtraSAN:  0,
		PortExtraLAN:  110 * units.Nanosecond,
	}
}

// ByteTime returns the link byte time.
func (p Params) ByteTime() units.Time { return units.ByteTime(p.LinkBandwidth) }
