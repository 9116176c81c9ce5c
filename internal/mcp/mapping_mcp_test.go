package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestMappingProbeAnsweredByMCP exercises the firmware's autonomous
// reply to a foreign mapping probe.
func TestMappingProbeAnsweredByMCP(t *testing.T) {
	r := newRig(t, ITB)
	// Probe from host1 to host2 with a valid return route.
	fwd, _ := r.tbl.Lookup(r.nodes.Host1, r.nodes.Host2)
	back, _ := r.tbl.Lookup(r.nodes.Host2, r.nodes.Host1)
	fwdHdr, err := fwd.EncodeHeader()
	if err != nil {
		t.Fatal(err)
	}
	backHdr, err := back.EncodeHeader()
	if err != nil {
		t.Fatal(err)
	}
	var got packet.Mapping
	answered := false
	r.mcps[r.nodes.Host1].OnMapping = func(m packet.Mapping, _ units.Time) {
		got = m
		answered = true
	}
	probe := &packet.Packet{
		Route: fwdHdr,
		Type:  packet.TypeMapping,
		Src:   int(r.nodes.Host1),
		Payload: packet.EncodeMapping(packet.Mapping{
			Kind:        packet.MappingProbe,
			Nonce:       77,
			Origin:      int32(r.nodes.Host1),
			ReturnRoute: backHdr,
		}),
	}
	r.mcps[r.nodes.Host1].SubmitSend(probe, nil, nil)
	r.eng.Run()
	if !answered {
		t.Fatal("no reply reached the mapper")
	}
	if got.Kind != packet.MappingReply || got.Nonce != 77 || got.Origin != int32(r.nodes.Host2) {
		t.Errorf("reply = %+v", got)
	}
}

// TestMappingMalformedFlushed: a garbage mapping payload is flushed
// without a reply and without wedging the NIC.
func TestMappingMalformedFlushed(t *testing.T) {
	r := newRig(t, ITB)
	fwd, _ := r.tbl.Lookup(r.nodes.Host1, r.nodes.Host2)
	hdr, _ := fwd.EncodeHeader()
	bad := &packet.Packet{
		Route:   hdr,
		Type:    packet.TypeMapping,
		Payload: []byte{1, 2}, // too short to decode
	}
	r.mcps[r.nodes.Host1].SubmitSend(bad, nil, nil)
	r.eng.Run()
	if free := r.mcps[r.nodes.Host2].recvBufsFree; free != 2 {
		t.Errorf("recv buffers leaked: %d free, want 2", free)
	}
}

// TestMappingProbeWithoutReturnRouteDies: the reply of a bootstrap
// probe (empty return route) is flushed at the first switch, and the
// replying NIC recovers.
func TestMappingProbeWithoutReturnRouteDies(t *testing.T) {
	r := newRig(t, ITB)
	fwd, _ := r.tbl.Lookup(r.nodes.Host1, r.nodes.Host2)
	hdr, _ := fwd.EncodeHeader()
	probe := &packet.Packet{
		Route: hdr,
		Type:  packet.TypeMapping,
		Src:   int(r.nodes.Host1),
		Payload: packet.EncodeMapping(packet.Mapping{
			Kind:   packet.MappingProbe,
			Nonce:  1,
			Origin: int32(r.nodes.Host1),
		}),
	}
	got := false
	r.mcps[r.nodes.Host1].OnMapping = func(packet.Mapping, units.Time) { got = true }
	r.mcps[r.nodes.Host1].SubmitSend(probe, nil, nil)
	r.eng.Run()
	if got {
		t.Error("route-less reply somehow reached the mapper")
	}
	if mis := r.net.Stats().Misrouted; mis != 1 {
		t.Errorf("misrouted = %d, want 1 (the dying reply)", mis)
	}
}

// TestBlockedITBArrivalStillForwards: an in-transit packet that had to
// wait for a receive buffer is still detected and forwarded once
// admitted.
func TestBlockedITBArrivalStillForwards(t *testing.T) {
	r := newRigCfg(t, func(c *Config) { c.RecvBuffers = 1 })
	// Occupy the in-transit host's only buffer with a slow local
	// reception: host2 sends it a large packet first.
	toITB, _ := r.tbl.Lookup(r.nodes.Host2, r.nodes.InTransit)
	hdr, _ := toITB.EncodeHeader()
	big := &packet.Packet{Route: hdr, Type: packet.TypeGM, Payload: make([]byte, 16384)}
	r.mcps[r.nodes.Host2].SubmitSend(big, nil, nil)
	// Let the reception get underway, then send the ITB packet.
	r.eng.RunFor(80 * units.Microsecond)
	delivered := false
	r.mcps[r.nodes.Host2].OnDeliver = func(*packet.Packet, units.Time) { delivered = true }
	r.mcps[r.nodes.Host1].SubmitSend(r.itbPacket(t, 128), nil, nil)
	r.eng.Run()
	if !delivered {
		t.Fatal("blocked in-transit packet never forwarded")
	}
	st := r.mcps[r.nodes.InTransit].Stats()
	if st.ITBForwarded != 1 {
		t.Errorf("forwarded = %d", st.ITBForwarded)
	}
	if st.BlockedArrivals == 0 {
		t.Error("arrival was never blocked; test did not exercise the queue")
	}
}

// TestTracerAccessors covers the tracing plumbing at the MCP level.
func TestTracerAccessors(t *testing.T) {
	r := newRig(t, ITB)
	rec := trace.NewRecorder(0)
	m := r.mcps[r.nodes.Host1]
	m.SetTracer(rec)
	if m.Engine() != r.eng {
		t.Error("Engine() mismatch")
	}
	m.SubmitSend(r.udPacket(t, r.nodes.Host1, r.nodes.Host2, 64), nil, nil)
	r.eng.Run()
	if len(rec.OfKind(trace.SendQueued)) != 1 {
		t.Error("no send-queued event recorded")
	}
}
