package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// sendLatency measures end-to-end delivery of one packet of the given
// size under a config tweak.
func sendLatency(t *testing.T, size int, tweak func(*Config)) units.Time {
	t.Helper()
	r := newRigCfg(t, tweak)
	var gotAt units.Time
	r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, tm units.Time) { gotAt = tm }
	r.mcps[r.nodes.Host1].SubmitSend(r.udPacket(t, r.nodes.Host1, r.nodes.Host2, size), nil, nil)
	r.eng.Run()
	if gotAt == 0 {
		t.Fatal("not delivered")
	}
	return gotAt
}

func TestSendChunkingOverlapsSDMAAndWire(t *testing.T) {
	// 8 KB: whole-packet staging serialises SDMA (~37us) before the
	// wire (~51us); 1 KB chunks start the wire after ~5us of SDMA,
	// hiding most of the SDMA time.
	whole := sendLatency(t, 8192, nil)
	chunked := sendLatency(t, 8192, func(c *Config) { c.SendChunkBytes = 1024 })
	saved := whole - chunked
	if saved < 20*units.Microsecond {
		t.Errorf("chunking saved only %v on 8KB; expected to hide most of the ~37us SDMA", saved)
	}
}

func TestSendChunkingNeutralForSmallPackets(t *testing.T) {
	// A packet smaller than one chunk degenerates to the plain path.
	whole := sendLatency(t, 256, nil)
	chunked := sendLatency(t, 256, func(c *Config) { c.SendChunkBytes = 1024 })
	diff := chunked - whole
	if diff < 0 {
		diff = -diff
	}
	if diff > 200*units.Nanosecond {
		t.Errorf("chunking changed small-packet latency by %v", diff)
	}
}

func TestTinyChunksPayOverhead(t *testing.T) {
	// 32-byte chunks on 8KB = 256 descriptors (~31us of chaining
	// overhead): the SDMA tail becomes the bottleneck and delivery is
	// slower than with 256-byte chunks, whose overhead is negligible.
	small := sendLatency(t, 8192, func(c *Config) { c.SendChunkBytes = 32 })
	big := sendLatency(t, 8192, func(c *Config) { c.SendChunkBytes = 256 })
	if small <= big {
		t.Errorf("32B chunks (%v) not slower than 256B chunks (%v)", small, big)
	}
}

func TestChunkedWireNeverOutrunsSDMA(t *testing.T) {
	// The wire (160MB/s) is slower than the host DMA (220MB/s), but
	// with chunking the wire starts early; delivery must still never
	// precede the SDMA completion bound: startup + size at PCI rate.
	size := 16384
	lat := sendLatency(t, size, func(c *Config) { c.SendChunkBytes = 512 })
	sdmaMin := 500*units.Nanosecond + units.TransferTime(size, 220*units.MBs)
	if lat < sdmaMin {
		t.Errorf("delivery %v before the SDMA could finish (%v)", lat, sdmaMin)
	}
	// And it must beat whole-staging by roughly the SDMA time.
	whole := sendLatency(t, size, nil)
	if lat >= whole {
		t.Errorf("chunked %v not faster than whole staging %v", lat, whole)
	}
}

func TestChunkingWithITBForwarding(t *testing.T) {
	// Chunked sends compose with in-transit forwarding.
	r := newRigCfg(t, func(c *Config) { c.SendChunkBytes = 512 })
	var gotAt units.Time
	r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, tm units.Time) { gotAt = tm }
	r.mcps[r.nodes.Host1].SubmitSend(r.itbPacket(t, 4096), nil, nil)
	r.eng.Run()
	if gotAt == 0 {
		t.Fatal("ITB packet not delivered with chunked sends")
	}
	if fw := r.mcps[r.nodes.InTransit].Stats().ITBForwarded; fw != 1 {
		t.Errorf("forwards = %d", fw)
	}
}
