// Package faults drives deterministic fault-injection campaigns
// against a simulated cluster. A campaign is a seeded timeline of
// typed events — link failures and repairs, bit-error bursts, NIC
// stalls, buffer-pool exhaustion, scout loss during mapping — that the
// controller executes as ordinary simulation events. Because every
// event is generated up-front from the campaign seed and applied at a
// fixed simulated time, a campaign replays byte-for-byte: the fault
// process is exactly as reproducible as the simulation itself, which
// is what lets fault experiments run under the parallel experiment
// runner without losing determinism.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/topology"
	"repro/internal/units"
)

// Kind is the type of one fault event.
type Kind int

const (
	// LinkDown fails a link: headers entering it are killed and
	// packets streaming across it are corrupted.
	LinkDown Kind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
	// BitErrorBurst corrupts packets crossing Link with probability
	// BER for Duration, then clears.
	BitErrorBurst
	// NICStall freezes one host's NIC: nothing leaves its send queue
	// and arriving packets are flushed unreceived.
	NICStall
	// NICResume unfreezes a stalled NIC.
	NICResume
	// PoolExhaust forces the host's receive buffer pool to behave as
	// if permanently full (every arrival overflows).
	PoolExhaust
	// PoolRestore ends a PoolExhaust episode.
	PoolRestore
	// ScoutLoss arms the mapping-packet fault process: every
	// DropEvery-th scout is lost and every DupEvery-th duplicated
	// (0,0 disarms).
	ScoutLoss
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case BitErrorBurst:
		return "bit-error-burst"
	case NICStall:
		return "nic-stall"
	case NICResume:
		return "nic-resume"
	case PoolExhaust:
		return "pool-exhaust"
	case PoolRestore:
		return "pool-restore"
	case ScoutLoss:
		return "scout-loss"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one entry in a campaign timeline.
type Event struct {
	At   units.Time
	Kind Kind

	Link     int             // LinkDown/LinkUp/BitErrorBurst
	Host     topology.NodeID // NICStall/NICResume/PoolExhaust/PoolRestore
	BER      float64         // BitErrorBurst
	Duration units.Time      // BitErrorBurst

	DropEvery int // ScoutLoss
	DupEvery  int // ScoutLoss
}

// String renders one event compactly.
func (e Event) String() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("%v %s link=%d", e.At, e.Kind, e.Link)
	case BitErrorBurst:
		return fmt.Sprintf("%v %s link=%d ber=%g dur=%v", e.At, e.Kind, e.Link, e.BER, e.Duration)
	case NICStall, NICResume, PoolExhaust, PoolRestore:
		return fmt.Sprintf("%v %s host=%d", e.At, e.Kind, e.Host)
	case ScoutLoss:
		return fmt.Sprintf("%v %s drop=%d dup=%d", e.At, e.Kind, e.DropEvery, e.DupEvery)
	default:
		return fmt.Sprintf("%v %s", e.At, e.Kind)
	}
}

// Campaign is a named, fully materialised fault timeline. Events are
// kept sorted by time; ties preserve insertion order (the controller
// relies on the engine's stable event ordering for simultaneous
// events).
type Campaign struct {
	Name   string
	Seed   int64
	Events []Event
}

// String summarises the campaign for experiment reports.
func (c Campaign) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q (seed %d, %d events)", c.Name, c.Seed, len(c.Events))
	return b.String()
}

// sorted returns the events in stable time order.
func (c Campaign) sorted() []Event {
	evs := append([]Event(nil), c.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// GenConfig bounds campaign generation.
type GenConfig struct {
	// Horizon is the window faults are injected into.
	Horizon units.Time
	// Events is how many fault episodes to generate (a transient
	// fault's repair event does not count against this).
	Events int
}

// transientShare is the probability a generated fault is repaired
// within the horizon; the rest stay broken and exercise the
// dead-peer/reroute machinery.
const transientShare = 0.7

// Generate materialises a random campaign for a topology from a seed.
// The same (seed, topology, config) always yields the same campaign:
// generation happens entirely up-front on a private RNG, never during
// the simulation.
//
// Only switch-switch links are failed — killing a host's only uplink
// partitions that host trivially, which is a less interesting campaign
// than mid-fabric faults (and the generator's job is breadth, not
// cruelty; explicit campaigns can still down host links).
func Generate(seed int64, t *topology.Topology, cfg GenConfig) Campaign {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10 * units.Millisecond
	}
	if cfg.Events <= 0 {
		cfg.Events = 4
	}
	var swLinks []int
	for _, l := range t.Links() {
		if t.Node(l.A).Kind == topology.KindSwitch && t.Node(l.B).Kind == topology.KindSwitch && !l.IsLoopback() {
			swLinks = append(swLinks, l.ID)
		}
	}
	hosts := t.Hosts()
	c := Campaign{Name: fmt.Sprintf("gen-%d", seed), Seed: seed}
	at := func() units.Time {
		return units.Time(rng.Int63n(int64(cfg.Horizon)))
	}
	repairAt := func(start units.Time) (units.Time, bool) {
		if rng.Float64() >= transientShare {
			return 0, false
		}
		rest := int64(cfg.Horizon - start)
		if rest <= 1 {
			return 0, false
		}
		return start + 1 + units.Time(rng.Int63n(rest)), true
	}
	for i := 0; i < cfg.Events; i++ {
		roll := rng.Intn(10)
		switch {
		case roll < 4 && len(swLinks) > 0: // 40% link faults
			link := swLinks[rng.Intn(len(swLinks))]
			start := at()
			c.Events = append(c.Events, Event{At: start, Kind: LinkDown, Link: link})
			if up, ok := repairAt(start); ok {
				c.Events = append(c.Events, Event{At: up, Kind: LinkUp, Link: link})
			}
		case roll < 6 && len(swLinks) > 0: // 20% error bursts
			link := swLinks[rng.Intn(len(swLinks))]
			start := at()
			dur := 1 + units.Time(rng.Int63n(int64(cfg.Horizon)/4+1))
			ber := 0.05 + 0.4*rng.Float64()
			c.Events = append(c.Events, Event{At: start, Kind: BitErrorBurst, Link: link, BER: ber, Duration: dur})
		case roll < 8 && len(hosts) > 0: // 20% NIC stalls
			h := hosts[rng.Intn(len(hosts))]
			start := at()
			c.Events = append(c.Events, Event{At: start, Kind: NICStall, Host: h})
			if up, ok := repairAt(start); ok {
				c.Events = append(c.Events, Event{At: up, Kind: NICResume, Host: h})
			}
		default: // 20% pool exhaustion
			h := hosts[rng.Intn(len(hosts))]
			start := at()
			c.Events = append(c.Events, Event{At: start, Kind: PoolExhaust, Host: h})
			if up, ok := repairAt(start); ok {
				c.Events = append(c.Events, Event{At: up, Kind: PoolRestore, Host: h})
			}
		}
	}
	return c
}
