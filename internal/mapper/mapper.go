// Package mapper implements GM's network-mapping function as an
// actual protocol over the simulated fabric: a mapper host emits
// scout packets with trial source routes, remote MCPs answer probes
// with their identity along the return route the probe carries, and
// probes whose routes loop home prove switch-to-switch cabling.
//
// Myrinet switches are transparent (they have no addresses), so the
// mapper can only learn the graph from which routes elicit replies —
// exactly the constraint the real GM mapper works under. Switch
// identity is established through the hosts attached to a switch
// (a NIC has one cable, so seeing a known host through a new path
// pins the switch), with a route-equivalence fallback for hostless
// switches.
package mapper

import (
	"fmt"

	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config tunes discovery.
type Config struct {
	// MaxPorts bounds the switch radix to probe (default 8).
	MaxPorts int
	// Timeout is how long to wait for each probe's echo or reply.
	Timeout units.Time
	// Retries re-sends a probe (with a fresh nonce) after each
	// timeout, up to this many times. Zero keeps the historical
	// single-shot behaviour; mapping under scout loss needs a few
	// retries or lost scouts read as dead ports and the map comes out
	// missing cables.
	Retries int
}

// DefaultConfig returns the usual exploration parameters.
func DefaultConfig() Config {
	return Config{MaxPorts: 8, Timeout: 50 * units.Microsecond}
}

// HostAttachment records one discovered host.
type HostAttachment struct {
	Host   topology.NodeID
	Switch int // discovered switch index (0 = the mapper's own)
	Port   int
}

// Cable records one discovered switch-to-switch link.
type Cable struct {
	ASwitch, APort int
	BSwitch, BPort int
}

// Map is the result of a discovery run.
type Map struct {
	// Switches is the number of switches found; index 0 is the
	// mapper's own switch.
	Switches int
	// OwnPort is the port of switch 0 the mapper host hangs off.
	OwnPort int
	Hosts   []HostAttachment
	Cables  []Cable
	// Probes counts scout packets sent.
	Probes int
	// Retried counts probes re-sent after a timeout (Config.Retries).
	Retried int
}

type endpoint struct{ sw, port int }

type swInfo struct {
	fwd []byte // route bytes that carry a packet from the mapper to this switch
	rev []byte // route bytes that carry a packet from this switch into the mapper host
}

// Mapper drives discovery from one host.
type Mapper struct {
	eng  *sim.Engine
	m    *mcp.MCP
	home topology.NodeID
	cfg  Config

	nonce    uint32
	switches []*swInfo
	hostAt   map[topology.NodeID]int // host -> switch index
	used     map[endpoint]bool       // cabled or host-bearing ports
	result   Map
}

// New builds a mapper driving the given MCP (whose host becomes the
// mapper host). The mapper takes over the MCP's OnMapping callback.
func New(m *mcp.MCP, cfg Config) *Mapper {
	if cfg.MaxPorts <= 0 || cfg.Timeout <= 0 {
		panic("mapper: invalid config")
	}
	return &Mapper{
		eng:    m.Engine(),
		m:      m,
		home:   m.Host(),
		cfg:    cfg,
		hostAt: make(map[topology.NodeID]int),
		used:   make(map[endpoint]bool),
	}
}

type probeOutcome int

const (
	probeTimeout probeOutcome = iota
	probeSelfReturn
	probeReply
)

type probeResult struct {
	outcome probeOutcome
	host    topology.NodeID // for probeReply
}

// probe sends one scout and runs the engine until its echo, a reply,
// or the timeout; lost scouts are retried Config.Retries times with a
// fresh nonce each attempt (stale replies to an earlier attempt fail
// the nonce check and are ignored). Discovery owns the engine while it
// runs, so this synchronous style is sound.
func (mp *Mapper) probe(route, returnRoute []byte) probeResult {
	res := probeResult{outcome: probeTimeout}
	for attempt := 0; attempt <= mp.cfg.Retries; attempt++ {
		if attempt > 0 {
			mp.result.Retried++
		}
		mp.nonce++
		nonce := mp.nonce
		mp.result.Probes++
		done := false
		mp.m.OnMapping = func(pm packet.Mapping, _ units.Time) {
			if done || pm.Nonce != nonce {
				return
			}
			done = true
			if pm.Kind == packet.MappingReply {
				res = probeResult{outcome: probeReply, host: topology.NodeID(pm.Origin)}
			} else {
				res = probeResult{outcome: probeSelfReturn}
			}
			mp.eng.Stop()
		}
		scout := &packet.Packet{
			Route: append([]byte(nil), route...),
			Type:  packet.TypeMapping,
			Src:   int(mp.home),
			Payload: packet.EncodeMapping(packet.Mapping{
				Kind:        packet.MappingProbe,
				Nonce:       nonce,
				Origin:      int32(mp.home),
				ReturnRoute: returnRoute,
			}),
		}
		mp.m.SubmitSend(scout, nil, nil)
		mp.eng.RunUntil(mp.eng.Now() + mp.cfg.Timeout)
		mp.m.OnMapping = nil
		if done {
			break
		}
	}
	return res
}

// Discover explores the network and returns the map.
func (mp *Mapper) Discover() (Map, error) {
	// Step 1: find our own attach port — the only single-byte route
	// that loops straight back into our NIC.
	own := -1
	for q := 0; q < mp.cfg.MaxPorts; q++ {
		if r := mp.probe([]byte{byte(q)}, nil); r.outcome == probeSelfReturn {
			own = q
			break
		}
	}
	if own < 0 {
		return Map{}, fmt.Errorf("mapper: could not find own switch port")
	}
	mp.result.OwnPort = own
	mp.switches = []*swInfo{{fwd: nil, rev: []byte{byte(own)}}}
	mp.hostAt[mp.home] = 0
	mp.used[endpoint{0, own}] = true
	mp.result.Hosts = append(mp.result.Hosts, HostAttachment{Host: mp.home, Switch: 0, Port: own})

	// Step 2: breadth-first exploration of (switch, port) frontiers.
	for s := 0; s < len(mp.switches); s++ {
		for p := 0; p < mp.cfg.MaxPorts; p++ {
			if mp.used[endpoint{s, p}] {
				continue
			}
			mp.explorePort(s, p)
		}
	}
	mp.result.Switches = len(mp.switches)
	return mp.result, nil
}

// explorePort classifies one switch port: host, switch, or dead.
func (mp *Mapper) explorePort(s, p int) {
	sw := mp.switches[s]
	// Host test: deliver into whatever hangs off the port; a NIC
	// answers along rev(s).
	hostRoute := append(append([]byte(nil), sw.fwd...), byte(p))
	if r := mp.probe(hostRoute, sw.rev); r.outcome == probeReply {
		mp.recordHost(r.host, s, p)
		return
	}
	// Switch test: find far-side port candidates. Stage one is a
	// single-bounce probe (S -> Z -> S -> home); it proves there is a
	// switch at the port and that rev(S) routes home from wherever x
	// leads, but cycles in the switch graph can fake it. Stage two
	// verifies each candidate by reaching a *known host of S* right
	// after the bounce: a NIC has exactly one cable, so a reply with
	// that host's identity proves the x hop really landed back on S.
	// (Parallel cables remain interchangeable — any of them lands on
	// S — which is an acceptable ambiguity.) When S has no known host
	// yet, fall back to the weaker double-bounce heuristic.
	var candidates []int
	hostPort, hostID, haveHost := mp.knownHostOn(s)
	for x := 0; x < mp.cfg.MaxPorts; x++ {
		single := append(append([]byte(nil), sw.fwd...), byte(p), byte(x))
		single = append(single, sw.rev...)
		if r := mp.probe(single, nil); r.outcome != probeSelfReturn {
			continue
		}
		if haveHost {
			verify := append(append([]byte(nil), sw.fwd...),
				byte(p), byte(x), byte(hostPort))
			r := mp.probe(verify, sw.rev)
			ok := r.outcome == probeReply && r.host == hostID
			if hostID == mp.home {
				// The witness host is the mapper itself: the probe
				// comes back as a self-return, not a reply.
				ok = r.outcome == probeSelfReturn
			}
			if ok {
				candidates = append(candidates, x)
			}
			continue
		}
		double := append(append([]byte(nil), sw.fwd...),
			byte(p), byte(x), byte(p), byte(x))
		double = append(double, sw.rev...)
		if r := mp.probe(double, nil); r.outcome == probeSelfReturn {
			candidates = append(candidates, x)
		}
	}
	if len(candidates) == 0 {
		// Dead or empty port.
		return
	}
	fwdZ := append(append([]byte(nil), sw.fwd...), byte(p))
	revZ := append([]byte{byte(candidates[0])}, sw.rev...)
	z := mp.identifySwitch(fwdZ, revZ, candidates[0])
	// Attribute the cable to the first candidate port of Z not yet
	// carrying a cable; with parallel cables the exact pairing is
	// observationally ambiguous, but this keeps endpoint bookkeeping
	// one-to-one so the far side is not re-explored.
	farPort := candidates[0]
	for _, x := range candidates {
		if !mp.used[endpoint{z, x}] {
			farPort = x
			break
		}
	}
	mp.recordCable(s, p, z, farPort)
}

// identifySwitch decides whether the switch reached via fwdZ is
// already known, recording any hosts it finds along the way. It
// returns the switch index (appending a new switch if needed).
func (mp *Mapper) identifySwitch(fwdZ, revZ []byte, entryPort int) int {
	type found struct {
		host topology.NodeID
		port int
	}
	var unknowns []found
	for q := 0; q < mp.cfg.MaxPorts; q++ {
		if q == entryPort {
			continue
		}
		route := append(append([]byte(nil), fwdZ...), byte(q))
		r := mp.probe(route, revZ)
		if r.outcome != probeReply {
			continue
		}
		if t, ok := mp.hostAt[r.host]; ok {
			// A known host: a NIC has exactly one cable, so this is
			// switch t.
			return t
		}
		unknowns = append(unknowns, found{host: r.host, port: q})
	}
	if len(unknowns) == 0 {
		// Hostless switch: fall back to route equivalence against
		// every known switch (weaker: symmetric wiring can alias).
		for t, ti := range mp.switches {
			route := append(append([]byte(nil), fwdZ...), ti.rev...)
			if r := mp.probe(route, nil); r.outcome == probeSelfReturn {
				return t
			}
		}
	}
	// A new switch.
	z := len(mp.switches)
	mp.switches = append(mp.switches, &swInfo{fwd: fwdZ, rev: revZ})
	for _, u := range unknowns {
		mp.recordHost(u.host, z, u.port)
	}
	return z
}

// knownHostOn returns a witness host already recorded on switch s
// (preferring one that is not the mapper itself, so its reply is
// unambiguous).
func (mp *Mapper) knownHostOn(s int) (port int, id topology.NodeID, ok bool) {
	var fallback *HostAttachment
	for i := range mp.result.Hosts {
		h := &mp.result.Hosts[i]
		if h.Switch != s {
			continue
		}
		if h.Host != mp.home {
			return h.Port, h.Host, true
		}
		fallback = h
	}
	if fallback != nil {
		return fallback.Port, fallback.Host, true
	}
	return 0, 0, false
}

func (mp *Mapper) recordHost(h topology.NodeID, s, p int) {
	if _, ok := mp.hostAt[h]; ok {
		return
	}
	mp.hostAt[h] = s
	mp.used[endpoint{s, p}] = true
	mp.result.Hosts = append(mp.result.Hosts, HostAttachment{Host: h, Switch: s, Port: p})
}

func (mp *Mapper) recordCable(s, p, z, x int) {
	mp.used[endpoint{s, p}] = true
	if z == s && x == p {
		// A loopback test cable observed through its own symmetry;
		// discovery targets operational networks, so skip it.
		return
	}
	// The far endpoint may already carry a parallel cable; with
	// parallel cables between one switch pair the port pairing is
	// observationally ambiguous (any pairing routes identically), so
	// we only mark the far endpoint when it is still free.
	if !mp.used[endpoint{z, x}] {
		mp.used[endpoint{z, x}] = true
	}
	mp.result.Cables = append(mp.result.Cables, Cable{ASwitch: s, APort: p, BSwitch: z, BPort: x})
}
