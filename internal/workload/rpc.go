package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/gm"
	"repro/internal/gmip"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
)

// RPCConfig parameterises the fan-out service: every host is both a
// client issuing open-loop RPCs and a server answering them over the
// gmip IP stack. One RPC sends RequestBytes to each of Fanout
// distinct servers and completes when the last ReplyBytes reply is
// back — the partition/aggregate shape whose tail latency the
// datacenter literature obsesses over.
type RPCConfig struct {
	// Fanout is the servers contacted per RPC (1 <= Fanout < hosts).
	Fanout int
	// RequestBytes and ReplyBytes size the datagram payloads; both
	// must fit the RPC framing (>= 24).
	RequestBytes, ReplyBytes int
	// Load is the offered load per client as a fraction of its link
	// bandwidth (an RPC injects Fanout*RequestBytes).
	Load float64
	// Seed makes the schedule reproducible.
	Seed int64
	// Warmup and Horizon bound the measurement: RPCs issued in
	// [Warmup, Horizon) are counted; injection stops at Horizon.
	Warmup, Horizon units.Time
	// LinkBandwidth normalises the offered load.
	LinkBandwidth units.Bandwidth
}

// rpcHeader is the payload framing: [kind: 1][rpc id: 8][stamp: 8],
// padded to the configured datagram size.
const rpcHeader = 17

const (
	rpcRequest = 0
	rpcReply   = 1
)

// RPCStats is the outcome of a fan-out run.
type RPCStats struct {
	// Issued RPCs started inside the measurement window; Completed
	// saw all Fanout replies; Rejected could not even inject (GM send
	// tokens exhausted — the stack's own backpressure under overload).
	Issued, Completed, Rejected uint64
	// DeliveredBytes counts request and reply payload bytes landing
	// on any stack inside the window.
	DeliveredBytes uint64
	// FCT holds the completion-time samples (picoseconds) of the
	// completed window RPCs.
	FCT *stats.Summary
}

// RPCFanout is a wired fan-out service.
type RPCFanout struct {
	cfg    RPCConfig
	stats  RPCStats
	stacks []*gmip.Stack
}

// Stats returns the current counters (typically read after the engine
// drained past the horizon).
func (r *RPCFanout) Stats() RPCStats { return r.stats }

type rpcPending struct {
	remaining int
	start     units.Time
}

// StartRPCFanout builds a gmip stack on every host, wires servers and
// schedules every client's open-loop RPC arrivals. The caller runs
// the engine past cfg.Horizon (plus a drain margin for in-flight
// replies) and then reads Stats.
func StartRPCFanout(eng *sim.Engine, hosts []topology.NodeID, hostOf func(topology.NodeID) *gm.Host, cfg RPCConfig) (*RPCFanout, error) {
	n := len(hosts)
	if n < 2 {
		return nil, fmt.Errorf("workload: rpc fan-out needs at least 2 hosts, have %d", n)
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("workload: rpc fan-out addressing supports at most %d hosts, have %d", 1<<16, n)
	}
	if cfg.Fanout < 1 || cfg.Fanout > n-1 {
		return nil, fmt.Errorf("workload: rpc fanout %d outside [1, %d]", cfg.Fanout, n-1)
	}
	if cfg.RequestBytes < rpcHeader+7 || cfg.ReplyBytes < rpcHeader+7 {
		return nil, fmt.Errorf("workload: rpc request/reply sizes must be >= 24 bytes, got %d/%d",
			cfg.RequestBytes, cfg.ReplyBytes)
	}
	if cfg.Horizon <= cfg.Warmup {
		return nil, fmt.Errorf("workload: rpc horizon %v must exceed warmup %v", cfg.Horizon, cfg.Warmup)
	}
	mean, err := MeanGap(cfg.Load, float64(cfg.Fanout*cfg.RequestBytes), cfg.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	r := &RPCFanout{cfg: cfg, stacks: make([]*gmip.Stack, n)}
	r.stats.FCT = &stats.Summary{}
	addr := func(i int) gmip.Addr { return gmip.Addr{10, 0, byte(i >> 8), byte(i)} }
	for i, h := range hosts {
		// Generous rings: the study wants admission limited by the
		// ack-paced token recycling under real network load, not by
		// the stock 16-deep provisioning.
		s, err := gmip.NewStackSized(hostOf(h), addr(i), 64, 256)
		if err != nil {
			return nil, err
		}
		r.stacks[i] = s
	}
	for i := range hosts {
		for j := range hosts {
			if i != j {
				r.stacks[i].AddNeighbor(addr(j), hosts[j])
			}
		}
	}
	inWindow := func(t units.Time) bool { return t >= cfg.Warmup && t < cfg.Horizon }

	pending := make(map[uint64]*rpcPending)
	var nextID uint64
	for i := range hosts {
		i := i
		stack := r.stacks[i]
		stack.OnDatagram = func(h gmip.Header, payload []byte, t units.Time) {
			if h.Protocol != gmip.ProtoUDP || len(payload) < rpcHeader {
				return
			}
			if inWindow(t) {
				r.stats.DeliveredBytes += uint64(len(payload))
			}
			switch payload[0] {
			case rpcRequest:
				// Serve: echo id and stamp back, padded to the reply
				// size.
				out := make([]byte, cfg.ReplyBytes)
				out[0] = rpcReply
				copy(out[1:rpcHeader], payload[1:rpcHeader])
				// A reply the stack cannot inject right now is
				// dropped, exactly like an overloaded server shedding
				// load; the client's RPC then never completes.
				_ = stack.SendDatagram(h.Src, gmip.ProtoUDP, out)
			case rpcReply:
				id := binary.LittleEndian.Uint64(payload[1:9])
				p := pending[id]
				if p == nil {
					return
				}
				p.remaining--
				if p.remaining > 0 {
					return
				}
				delete(pending, id)
				if inWindow(p.start) {
					r.stats.Completed++
					r.stats.FCT.Add(float64(t - p.start))
				}
			}
		}
	}

	// Clients: every host issues RPCs on its own arrival process to
	// Fanout distinct random servers.
	for i := range hosts {
		i := i
		ap, err := NewArrival(mean, rand.New(rand.NewSource(cfg.Seed+31*int64(i+1))))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ (0x2545F4914F6CDD1D * int64(i+1))))
		issue := func() {
			now := eng.Now()
			nextID++
			id := nextID
			buf := make([]byte, cfg.RequestBytes)
			buf[0] = rpcRequest
			binary.LittleEndian.PutUint64(buf[1:9], id)
			binary.LittleEndian.PutUint64(buf[9:rpcHeader], uint64(now))
			// Fanout distinct servers drawn without replacement.
			sent := 0
			seen := make(map[int]bool, cfg.Fanout)
			for sent < cfg.Fanout {
				j := rng.Intn(n)
				if j == i || seen[j] {
					continue
				}
				seen[j] = true
				if err := r.stacks[i].SendDatagram(addr(j), gmip.ProtoUDP, buf); err != nil {
					// Out of send tokens: the whole RPC is rejected —
					// open-loop overload made visible as admission
					// failure rather than hidden queueing.
					if inWindow(now) {
						r.stats.Rejected++
					}
					return
				}
				sent++
			}
			if inWindow(now) {
				r.stats.Issued++
			}
			pending[id] = &rpcPending{remaining: cfg.Fanout, start: now}
		}
		var tick func()
		tick = func() {
			if eng.Now() >= cfg.Horizon {
				return
			}
			issue()
			eng.Schedule(ap.Next(), tick)
		}
		eng.Schedule(ap.Next(), tick)
	}
	return r, nil
}
