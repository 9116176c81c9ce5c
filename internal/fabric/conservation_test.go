package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestPacketConservationProperty: on random topologies under random
// traffic, every injected packet is accounted for: delivered or
// dropped, never duplicated, never lost in limbo (given accepting
// endpoints and deadlock-free routes).
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw, burstRaw uint8) bool {
		n := int(nRaw%6) + 2
		burst := int(burstRaw%40) + 1
		topo, err := topology.Generate(topology.DefaultGenConfig(n, seed))
		if err != nil {
			return false
		}
		eng := sim.NewEngine()
		net := New(eng, topo, DefaultParams())
		for _, h := range topo.Hosts() {
			net.Attach(h, &testEP{eng: eng})
		}
		tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		hosts := topo.Hosts()
		injected := 0
		for i := 0; i < burst; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			r, _ := tbl.Lookup(src, dst)
			hdr, err := r.EncodeHeader()
			if err != nil {
				return false
			}
			pkt := &packet.Packet{
				Route:   hdr,
				Type:    packet.TypeGM,
				Payload: make([]byte, rng.Intn(2048)),
			}
			at := units.Time(rng.Intn(100)) * units.Microsecond
			eng.ScheduleAt(at, func() { net.Inject(pkt, src, InjectOpts{}) })
			injected++
		}
		eng.Run()
		st := net.Stats()
		return st.Injected == uint64(injected) &&
			st.Delivered+st.Dropped == st.Injected &&
			st.Dropped == 0 // UD routes + accepting endpoints: no drops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStallAccountingProperty: a flight's stall time never exceeds its
// total latency, and unloaded flights have zero stall.
func TestStallAccountingProperty(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		eng := sim.NewEngine()
		topo, nodes := topology.Testbed()
		net := New(eng, topo, DefaultParams())
		eps := map[topology.NodeID]*testEP{}
		for _, h := range topo.Hosts() {
			ep := &testEP{eng: eng}
			eps[h] = ep
			net.Attach(h, ep)
		}
		tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
		if err != nil {
			return false
		}
		r, _ := tbl.Lookup(nodes.Host1, nodes.Host2)
		hdr, _ := r.EncodeHeader()
		pkt := &packet.Packet{Route: hdr, Type: packet.TypeGM, Payload: make([]byte, int(sizeRaw%4096))}
		f1 := net.Inject(pkt, nodes.Host1, InjectOpts{})
		eng.Run()
		return f1.StallTime() == 0 && len(eps[nodes.Host2].received) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
