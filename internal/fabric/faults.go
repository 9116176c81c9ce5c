package fabric

import (
	"fmt"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/trace"
)

// Fault-injection state of the fabric. All mutations happen from
// simulation events (the campaign controller schedules them on the
// shared engine), so the fault process is as deterministic as the
// simulation itself: same campaign, same seed, same byte-for-byte run.
//
// A downed link kills any packet whose header tries to enter it — the
// hardware analogue is the CRC-kill a switch applies to a stream from
// a dead cable. Packets already streaming across the link when it goes
// down are corrupted in place and die at the next NIC's CRC check.
// A per-link error burst corrupts each traversing packet with the
// configured probability, drawn from a dedicated seeded RNG.
type linkFault struct {
	down bool
	ber  float64 // per-traversal corruption probability
}

// scoutFault deterministically loses or duplicates mapping packets:
// every dropEvery-th mapping injection is corrupted (it dies at the
// next NIC, like a scout eaten by a line hit) and every dupEvery-th is
// injected twice (a retransmission artefact). Counter-based rather
// than random so campaigns replay exactly.
type scoutFault struct {
	dropEvery int
	dupEvery  int
	count     int
	suppress  bool // true while injecting a fault-made duplicate
}

// SetLinkDown marks a link failed (down=true) or repaired. Taking a
// link down also corrupts the packets currently streaming across it,
// so they fail the CRC at their next NIC instead of arriving intact.
func (n *Network) SetLinkDown(link int, down bool) {
	lf := n.linkFaultOf(link)
	if lf.down == down {
		return
	}
	lf.down = down
	detail := "up"
	if down {
		detail = "down"
		// Every lane of both directions dies with the cable: corrupt
		// whatever is streaming on each of them.
		for _, fromA := range []bool{true, false} {
			for lane := 0; lane < n.maxLanes; lane++ {
				if f := n.chans[n.laneIdx(link, fromA, lane)].owner; f != nil && !f.Done() {
					f.pkt.Corrupt = true
				}
			}
		}
	}
	n.emit(trace.LinkFault, n.topo.Link(link).A, 0, fmt.Sprintf("link=%d %s", link, detail))
}

// SetLinkBER sets the per-traversal corruption probability of one
// link (an error burst); zero clears it.
func (n *Network) SetLinkBER(link int, prob float64) {
	n.linkFaultOf(link).ber = prob
	if prob > 0 && n.linkFaultRand == nil {
		n.linkFaultRand = rand.New(rand.NewSource(n.par.FaultSeed + 2))
	}
	n.emit(trace.LinkFault, n.topo.Link(link).A, 0, fmt.Sprintf("link=%d ber=%g", link, prob))
}

// SetScoutFault arms (or, with 0,0, disarms) the mapping-packet fault
// process: every dropEvery-th mapping packet injected is lost and
// every dupEvery-th is duplicated.
func (n *Network) SetScoutFault(dropEvery, dupEvery int) {
	n.scout.dropEvery = dropEvery
	n.scout.dupEvery = dupEvery
}

func (n *Network) linkFaultOf(link int) *linkFault {
	if n.linkFaults == nil {
		n.linkFaults = make([]linkFault, len(n.topo.Links()))
	}
	return &n.linkFaults[link]
}

// crossFault applies per-link fault state to a header about to enter
// the link. It reports true when the link is down and the flight must
// be killed; otherwise it may corrupt the packet (error burst). Until
// a fault is installed it reads nothing but the nil slice.
func (n *Network) crossFault(f *Flight, link int) bool {
	if n.linkFaults == nil {
		return false
	}
	lf := &n.linkFaults[link]
	if lf.down {
		return true
	}
	if lf.ber > 0 && !f.pkt.Corrupt && n.linkFaultRand.Float64() < lf.ber {
		f.pkt.Corrupt = true
	}
	return false
}

// scoutInject applies the mapping-packet fault process to one
// injection. It returns a duplicate to inject after the original's
// tail has left, or nil.
func (n *Network) scoutInject(pkt *packet.Packet) *packet.Packet {
	if pkt.Type != packet.TypeMapping || n.scout.suppress ||
		(n.scout.dropEvery <= 0 && n.scout.dupEvery <= 0) {
		return nil
	}
	n.scout.count++
	if n.scout.dropEvery > 0 && n.scout.count%n.scout.dropEvery == 0 {
		pkt.Corrupt = true
		n.stats.ScoutsDropped++
		n.emit(trace.LinkFault, 0, pkt.ID, "scout-lost")
		return nil
	}
	if n.scout.dupEvery > 0 && n.scout.count%n.scout.dupEvery == 0 {
		n.stats.ScoutsDuplicated++
		n.emit(trace.LinkFault, 0, pkt.ID, "scout-dup")
		return pkt.Clone()
	}
	return nil
}
