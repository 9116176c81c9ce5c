package faults_test

import (
	"fmt"
	"testing"

	"math/rand"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// The hot-path overhaul recycles packets through a pool, and a fault
// campaign is the adversarial case for it: link-down kills, CRC
// flushes, buffer-pool drops and the dead-peer verdict all abandon
// packets mid-flight, and a packet returned to the pool while any of
// those paths still holds a reference would resurface as another
// packet's corrupted payload. This test runs campaigns with every
// payload byte carrying a message-derived pattern and verifies each
// delivered message byte-for-byte — a premature Put anywhere shows up
// as a pattern mismatch. It also replays each campaign and requires
// the outcome to be identical, pinning determinism under pooling.
func TestCampaignUnderPoolsConservesPayloads(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{3, 11, 42, 77, 1001}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		first := runPoolCampaign(t, topo, seed)
		again := runPoolCampaign(t, topo, seed)
		if first != again {
			t.Errorf("campaign seed %d: outcome not reproducible under pooling:\n first: %s\nsecond: %s",
				seed, first, again)
		}
	}
}

// runPoolCampaign runs one fault campaign with patterned payloads,
// fails the test on any payload corruption or accounting violation,
// and returns a deterministic outcome summary for replay comparison.
func runPoolCampaign(t *testing.T, topo *topology.Topology, seed int64) string {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mcp.DefaultConfig(mcp.ITB)
	mcfg.BufferPool = true
	mcfg.RecvBuffers = 2 // tight: overflow drops force retransmission
	par := gm.DefaultParams()
	par.MTU = 256 // multi-fragment messages stress clone/reassembly
	par.AckTimeout = 100 * units.Microsecond
	par.BackoffFactor = 2
	par.MaxAckTimeout = 1 * units.Millisecond
	par.DeadPeerTimeouts = 4
	hostIDs := topo.Hosts()
	hosts := make([]*gm.Host, 0, len(hostIDs))
	mcps := make([]*mcp.MCP, 0, len(hostIDs))
	byID := make(map[topology.NodeID]*gm.Host)
	for _, h := range hostIDs {
		m := mcp.New(net, h, mcfg)
		gh := gm.NewHost(eng, m, tbl, par)
		hosts = append(hosts, gh)
		mcps = append(mcps, m)
		byID[h] = gh
	}

	horizon := 800 * units.Microsecond
	mgr, err := recovery.NewManager(recovery.DefaultConfig(4*horizon), recovery.Target{
		Eng: eng, Topo: topo,
		Base: tbl, Hosts: hosts, Monitor: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	camp := faults.Generate(seed, topo, faults.GenConfig{Horizon: horizon, Events: 5})
	if _, err := faults.Attach(faults.Target{
		Eng: eng, Net: net, Topo: topo,
		Hosts: hosts, Recovery: mgr,
	}, camp); err != nil {
		t.Fatal(err)
	}

	const msgs = 24
	rng := rand.New(rand.NewSource(seed ^ 0x900d))
	delivered := make(map[uint64]int)
	acked := make(map[uint64]bool)
	failed := make(map[uint64]bool)
	corrupt := 0
	for _, gh := range hosts {
		gh.OnMessage = func(_ topology.NodeID, payload []byte, _ units.Time) {
			if len(payload) < 8 {
				corrupt++
				return
			}
			var id uint64
			for i := 0; i < 8; i++ {
				id |= uint64(payload[i]) << (8 * i)
			}
			delivered[id]++
			for i := 8; i < len(payload); i++ {
				if payload[i] != patternByte(id, i) {
					t.Errorf("campaign seed %d: message %d payload byte %d = %#02x, want %#02x (pool recycled a live packet?)",
						seed, id, i, payload[i], patternByte(id, i))
					corrupt++
					return
				}
			}
		}
	}
	for id := uint64(0); id < msgs; id++ {
		src := hostIDs[rng.Intn(len(hostIDs))]
		dst := hostIDs[rng.Intn(len(hostIDs))]
		for dst == src {
			dst = hostIDs[rng.Intn(len(hostIDs))]
		}
		payload := make([]byte, 16+rng.Intn(1024))
		for i := 0; i < 8; i++ {
			payload[i] = byte(id >> (8 * i))
		}
		for i := 8; i < len(payload); i++ {
			payload[i] = patternByte(id, i)
		}
		id := id
		at := units.Time(rng.Int63n(int64(horizon)))
		eng.ScheduleAt(at, func() {
			err := byID[src].SendTracked(dst, payload,
				func(i int) { acked[uint64(i)] = true },
				func(i int) { failed[uint64(i)] = true }, int(id))
			if err != nil {
				failed[id] = true
			}
		})
	}

	out0 := packet.PoolOutstanding()
	steps := 0
	for eng.Step() {
		if steps++; steps > 5_000_000 {
			t.Fatalf("campaign seed %d: no quiescence after %d events (t=%v)", seed, steps, eng.Now())
		}
	}

	for id := uint64(0); id < msgs; id++ {
		switch {
		case delivered[id] > 1:
			t.Errorf("campaign seed %d: message %d delivered %d times", seed, id, delivered[id])
		case acked[id] && delivered[id] != 1:
			t.Errorf("campaign seed %d: message %d acked but delivered %d times", seed, id, delivered[id])
		case !acked[id] && !failed[id]:
			t.Errorf("campaign seed %d: message %d silently lost", seed, id)
		}
	}

	sum := fmt.Sprintf("t=%v steps=%d corrupt=%d", eng.Now(), steps, corrupt)
	for id := uint64(0); id < msgs; id++ {
		sum += fmt.Sprintf(" %d:%d/%v/%v", id, delivered[id], acked[id], failed[id])
	}

	// Pool steady state: every packet checked out during the campaign
	// must be released by the layer that last held it. A campaign can
	// legitimately end with a NIC still wedged (a stall event with no
	// resume inside the horizon) holding queued wire clones in its send
	// SRAM, so revive every NIC, drain the aftermath, and only then
	// require the pool residue to be exactly zero. Before the drop-path
	// recycling fix this residue grew with the drop count — the
	// unbounded-growth leak this assertion pins.
	for _, m := range mcps {
		m.SetStalled(false)
		m.SetPoolExhausted(false)
	}
	for eng.Step() {
		if steps++; steps > 5_000_000 {
			t.Fatalf("campaign seed %d: no quiescence draining revived NICs", seed)
		}
	}
	if leaked := packet.PoolOutstanding() - out0; leaked != 0 {
		t.Errorf("campaign seed %d: %d pool packets still outstanding after full drain", seed, leaked)
	}
	return sum
}

// patternByte is the expected content of payload byte i of message id.
func patternByte(id uint64, i int) byte {
	return byte(uint64(i)*1103515245 + id*12345 + 7)
}

// TestPoolSteadyStateUnderSustainedDrops hammers one receiver with
// fire-and-forget traffic through a single receive buffer, so a large
// fraction of the wire packets die as buffer-pool drops. Every checked
// out pool packet — the delivered ones and the dropped ones — must be
// back in the pool at quiescence.
// Before the drop-path recycling fix this leaked one packet per drop
// plus one per send (the DisableAcks pump abandoned its originals), a
// residue proportional to traffic volume.
func TestPoolSteadyStateUnderSustainedDrops(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mcp.DefaultConfig(mcp.ITB)
	mcfg.BufferPool = true
	mcfg.RecvBuffers = 1 // one buffer: incast overflows constantly
	par := gm.DefaultParams()
	par.DisableAcks = true
	hostIDs := topo.Hosts()
	mcps := make([]*mcp.MCP, len(hostIDs))
	hosts := make([]*gm.Host, len(hostIDs))
	for i, h := range hostIDs {
		mcps[i] = mcp.New(net, h, mcfg)
		hosts[i] = gm.NewHost(eng, mcps[i], tbl, par)
	}

	dst := hostIDs[0]
	payload := make([]byte, 512)
	out0 := packet.PoolOutstanding()
	const rounds, perRound = 40, 4
	for r := 0; r < rounds; r++ {
		at := units.Time(r) * 2 * units.Microsecond
		for s := 1; s <= perRound; s++ {
			src := hosts[s]
			eng.ScheduleAt(at, func() {
				if err := src.Send(dst, payload); err != nil {
					t.Errorf("send: %v", err)
				}
			})
		}
	}
	steps := 0
	for eng.Step() {
		if steps++; steps > 5_000_000 {
			t.Fatalf("no quiescence after %d events", steps)
		}
	}
	var drops uint64
	for _, m := range mcps {
		drops += m.Stats().PoolDrops
	}
	if drops == 0 {
		t.Fatal("campaign produced no buffer-pool drops; the test lost its teeth")
	}
	if leaked := packet.PoolOutstanding() - out0; leaked != 0 {
		t.Errorf("%d pool packets outstanding after quiescence (%d drops); drop paths are leaking again", leaked, drops)
	}
}
