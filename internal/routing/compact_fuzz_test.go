package routing

import (
	"bytes"
	"testing"

	"repro/internal/topology"
)

// reencode decodes steps from switch sw with ct's decoder and encodes
// what the callbacks report back into step bytes: a port byte per hop,
// a stepITB+port pair per ejection and a stepVC+lane pair per lane
// change. It also returns the switch the path ends at.
func reencode(ct *CompactTable, sw topology.NodeID, steps []byte) ([]byte, topology.NodeID, error) {
	var out []byte
	end, err := ct.decode(sw, steps,
		func(l *topology.Link, from topology.NodeID) error {
			out = append(out, byte(l.PortAt(from)))
			return nil
		},
		func(sw, host topology.NodeID, l *topology.Link) error {
			out = append(out, stepITB, byte(l.PortAt(sw)))
			return nil
		},
		func(lane uint8) error {
			out = append(out, stepVC, lane)
			return nil
		})
	return out, end, err
}

// FuzzCompactSteps hardens the compact route decoder: it must never
// panic on arbitrary step bytes, and anything it accepts must
// re-encode to exactly the input, so the callbacks see every byte of
// the arena. The fixture is the two-lane vc-itb table of a small
// Dragonfly, whose routes exercise plain hops, in-transit resets and
// lane changes.
func FuzzCompactSteps(f *testing.F) {
	topo, err := topology.Dragonfly(topology.DragonflyConfig{Routers: 4, Hosts: 2, Globals: 2})
	if err != nil {
		f.Fatal(err)
	}
	s := len(topo.Switches())
	// Seed with real engine-built paths, including ITB- and
	// lane-bearing ones.
	for _, e := range []Engine{ITBRouting, VCEscapeEngine{NumLanes: 2, ITBRepair: true}} {
		ct, err := BuildCompact(e, topo, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, pair := range [][2]int{{0, 1}, {0, s - 1}, {3, 2 * s / 3}, {s - 1, 1}} {
			f.Add(pair[0], ct.PairSteps(pair[0], pair[1]))
		}
	}
	ct, err := BuildCompact(VCEscapeEngine{NumLanes: 2, ITBRepair: true}, topo, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, []byte{stepITB})          // truncated marker
	f.Add(0, []byte{stepITB, 0xFE})    // marker with bad port
	f.Add(0, []byte{stepVC})           // truncated lane marker
	f.Add(0, []byte{stepVC, 2, 0x00})  // lane beyond the table's two
	f.Add(0, []byte{stepVC, 1, 0x00})  // lane change before a hop
	f.Add(0, []byte{0x00, 0x01, 0x02}) // arbitrary hops
	f.Fuzz(func(t *testing.T, src int, steps []byte) {
		sw := topology.NodeID(((src % s) + s) % s) // switches occupy ids [0, s)
		out, _, err := reencode(ct, sw, steps)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if !bytes.Equal(out, steps) {
			t.Fatalf("round trip changed bytes:\n in: %v\nout: %v", steps, out)
		}
	})
}
