package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// itbLatency measures the delivery time of one in-transit packet of
// the given size under a firmware configuration tweak.
func itbLatency(t *testing.T, size int, tweak func(*Config)) units.Time {
	t.Helper()
	cfgTweak := tweak
	r := newRigCfg(t, func(c *Config) {
		if cfgTweak != nil {
			cfgTweak(c)
		}
	})
	var gotAt units.Time
	r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, tm units.Time) { gotAt = tm }
	r.mcps[r.nodes.Host1].SubmitSend(r.itbPacket(t, size), nil, nil)
	r.eng.Run()
	if gotAt == 0 {
		t.Fatal("not delivered")
	}
	return gotAt
}

func TestAblationEarlyRecvCutThrough(t *testing.T) {
	// Disabling Early Recv forces store-and-forward at the in-transit
	// host: for a 4 KB packet that adds roughly one serialisation
	// time (~25.6 us) to the path.
	fast := itbLatency(t, 4096, nil)
	slow := itbLatency(t, 4096, func(c *Config) { c.DisableEarlyRecv = true })
	diff := slow - fast
	if diff < 10*units.Microsecond {
		t.Errorf("store-and-forward only %v slower; expected ~one serialisation (25.6us)", diff)
	}
	// For a tiny packet the gap nearly vanishes (nothing to overlap).
	fastS := itbLatency(t, 8, nil)
	slowS := itbLatency(t, 8, func(c *Config) { c.DisableEarlyRecv = true })
	if d := slowS - fastS; d > 3*units.Microsecond {
		t.Errorf("tiny-packet store-and-forward penalty %v, expected small", d)
	}
}

func TestAblationReinjectViaDispatch(t *testing.T) {
	// Routing the re-injection through a dispatch cycle must cost a
	// little extra latency, and never be faster.
	fast := itbLatency(t, 256, nil)
	slow := itbLatency(t, 256, func(c *Config) { c.ReinjectViaDispatch = true })
	if slow < fast {
		t.Errorf("dispatch-cycle path faster (%v) than fast path (%v)", slow, fast)
	}
}
