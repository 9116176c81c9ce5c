package faults_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestConservationProperty is the fault suite's central invariant:
// under ANY generated campaign, every tracked message is either
// delivered exactly once or reported failed to its sender — never
// duplicated, never silently lost. quick.Check turns each generated
// seed into a full campaign run; the Rand is pinned so the set of
// campaigns is reproducible run-to-run (the package default is
// time-seeded, which makes failures unrepeatable).
func TestConservationProperty(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultGenConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	maxCount := 220
	if testing.Short() {
		maxCount = 40
	}
	// The invariant must hold regardless of who detects failures: the
	// centralized monitor and the decentralized gossip detector drive
	// completely different probe traffic and (in gossip mode) per-host
	// epoch installs, but delivery accounting may not notice.
	for _, det := range recovery.DetectorKinds() {
		det := det
		t.Run(string(det), func(t *testing.T) {
			cfg := &quick.Config{
				MaxCount: maxCount,
				Rand:     rand.New(rand.NewSource(7)),
			}
			prop := func(seed int64) bool {
				return checkConservation(t, topo, seed, det)
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkConservation runs one campaign on a fresh cluster and verifies
// the delivery accounting. It returns false (failing the property) on
// any violation, logging the campaign seed so the run is replayable.
func checkConservation(t *testing.T, topo *topology.Topology, seed int64, detector recovery.DetectorKind) bool {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Error(err)
		return false
	}
	mcfg := mcp.DefaultConfig(mcp.ITB)
	mcfg.BufferPool = true
	mcfg.RecvBuffers = 2 // tight pool: overflow drops are part of the property
	par := gm.DefaultParams()
	par.AckTimeout = 100 * units.Microsecond
	par.BackoffFactor = 2
	par.MaxAckTimeout = 1 * units.Millisecond
	par.DeadPeerTimeouts = 4
	hostIDs := topo.Hosts()
	hosts := make([]*gm.Host, 0, len(hostIDs))
	byID := make(map[topology.NodeID]*gm.Host)
	for _, h := range hostIDs {
		gh := gm.NewHost(eng, mcp.New(net, h, mcfg), tbl, par)
		hosts = append(hosts, gh)
		byID[h] = gh
	}

	horizon := 800 * units.Microsecond
	// Self-healing runs in-simulation: probes, suspicion, confirmation
	// and epoch installs are all events, not an oracle recompute.
	rcfg := recovery.DefaultConfig(4 * horizon)
	rtgt := recovery.Target{
		Eng: eng, Topo: topo,
		Base: tbl, Hosts: hosts, Monitor: 0,
	}
	var det recovery.Detector
	switch detector {
	case recovery.DetectorGossip:
		rcfg.Seed = seed
		gsp, err := recovery.NewGossip(rcfg, rtgt)
		if err != nil {
			t.Error(err)
			return false
		}
		gsp.Start()
		det = gsp
	default:
		mgr, err := recovery.NewManager(rcfg, rtgt)
		if err != nil {
			t.Error(err)
			return false
		}
		mgr.Start()
		det = mgr
	}
	camp := faults.Generate(seed, topo, faults.GenConfig{Horizon: horizon, Events: 5})
	if _, err := faults.Attach(faults.Target{
		Eng: eng, Net: net, Topo: topo,
		Hosts: hosts, Recovery: det,
	}, camp); err != nil {
		t.Error(err)
		return false
	}

	// Tracked traffic: a fixed batch of messages at seeded times, each
	// carrying its id in the payload so receivers can report delivery.
	const msgs = 24
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	delivered := make(map[uint64]int)
	acked := make(map[uint64]bool)
	failed := make(map[uint64]bool)
	for _, gh := range hosts {
		gh.OnMessage = func(_ topology.NodeID, payload []byte, _ units.Time) {
			if len(payload) < 8 {
				return
			}
			var id uint64
			for i := 0; i < 8; i++ {
				id |= uint64(payload[i]) << (8 * i)
			}
			delivered[id]++
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
		id := id
		at := units.Time(rng.Int63n(int64(horizon)))
		eng.ScheduleAt(at, func() {
			err := byID[src].SendTracked(dst, payload,
				func(i int) { acked[uint64(i)] = true },
				func(i int) { failed[uint64(i)] = true }, int(id))
			if err != nil {
				// Rejected up-front (dead peer, no surviving route):
				// that IS the failure report.
				failed[id] = true
			}
		})
	}

	// Run to quiescence with an event budget: the dead-peer verdict
	// must bound the run even under permanent faults, so exhausting the
	// budget is itself a failure (a fault-induced livelock).
	steps := 0
	for eng.Step() {
		if steps++; steps > 5_000_000 {
			t.Errorf("campaign seed %d: no quiescence after %d events (t=%v)", seed, steps, eng.Now())
			return false
		}
	}

	ok := true
	for id := uint64(0); id < msgs; id++ {
		switch {
		case delivered[id] > 1:
			t.Errorf("campaign seed %d: message %d delivered %d times", seed, id, delivered[id])
			ok = false
		case acked[id] && delivered[id] != 1:
			t.Errorf("campaign seed %d: message %d acked but delivered %d times", seed, id, delivered[id])
			ok = false
		case !acked[id] && !failed[id]:
			t.Errorf("campaign seed %d: message %d silently lost (no ack, no failure report)", seed, id)
			ok = false
		}
	}
	for id := range delivered {
		if id >= msgs {
			t.Errorf("campaign seed %d: phantom message id %d delivered", seed, id)
			ok = false
		}
	}
	return ok
}
