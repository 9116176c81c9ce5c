// Package workload is the simulator's one traffic plane. It supplies
// arrival processes (Poisson and bursty Markov-modulated), flow-size
// mixes (fixed, uniform, heavy-tailed web-search style) and scenario
// generators that compile an offered load into a deterministic flow
// schedule: the datacenter-style mixes (FatPaths' framing) the
// saturation studies judge the routing engines under (uniform,
// incast, outcast, all-to-all), and the destination patterns the
// paper and its companion studies evaluate ITBs under (uniform,
// hotspot, bit-reversal, permutation) — plus two closed-loop drivers: a
// ring/tree allreduce collective over GM ports and an RPC fan-out
// service over the gmip stack.
//
// Everything here is deterministic per seed: a schedule is a pure
// function of (topology, config), so the core drivers can shard cells
// across workers and stay byte-identical at any worker count.
package workload

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/topology"
	"repro/internal/units"
)

// Scenario selects the spatial shape of an open-loop plan.
type Scenario int

const (
	// ScenarioUniform has every host injecting to uniformly random
	// other hosts (the Uniform destination pattern).
	ScenarioUniform Scenario = iota
	// ScenarioIncast aims many senders at one victim host — the
	// classic partition/aggregate hot spot.
	ScenarioIncast
	// ScenarioOutcast has one overloaded source spraying all other
	// hosts round-robin.
	ScenarioOutcast
	// ScenarioAllToAll has every host cycling deterministically
	// through every other host — the shuffle phase of a distributed
	// join.
	ScenarioAllToAll
	// ScenarioPattern has every host sending to destinations drawn
	// under a destination Pattern — the traffic of the throughput
	// sweep, the buffer-pool study and the fault campaigns.
	ScenarioPattern
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioUniform:
		return "uniform"
	case ScenarioIncast:
		return "incast"
	case ScenarioOutcast:
		return "outcast"
	case ScenarioAllToAll:
		return "alltoall"
	case ScenarioPattern:
		return "pattern"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ScenarioByName resolves a scenario from its CLI name.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range []Scenario{ScenarioUniform, ScenarioIncast, ScenarioOutcast, ScenarioAllToAll} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown scenario %q (valid: uniform incast outcast alltoall)", name)
}

// Flow is one scheduled open-loop injection: Src sends Bytes of
// payload to Dst at absolute simulation time Start, regardless of
// whether earlier flows have completed — that open loop is what makes
// overload visible.
type Flow struct {
	Src, Dst topology.NodeID
	Bytes    int
	Start    units.Time
}

// maxPlanFlows bounds a schedule: beyond this the configuration is a
// mistake (offered load, horizon or host count out of proportion),
// and failing fast beats allocating gigabytes of flows.
const maxPlanFlows = 4 << 20

// PlanConfig compiles into a flow schedule.
type PlanConfig struct {
	Scenario Scenario
	// Load is the offered load per active sender, as a fraction of
	// its link bandwidth. Open-loop: values above 1 deliberately
	// overload.
	Load float64
	// Arrival shapes the interarrival process of every sender.
	Arrival ArrivalConfig
	// Sizes draws per-flow payload sizes.
	Sizes SizeMix
	// Seed makes the schedule reproducible.
	Seed int64
	// Horizon bounds the schedule: flows start strictly before it.
	Horizon units.Time
	// LinkBandwidth is the per-host injection bandwidth the load is
	// normalised against.
	LinkBandwidth units.Bandwidth
	// Fanin bounds the participant count of incast (senders) and
	// outcast (receivers); 0 means all other hosts.
	Fanin int
	// Pattern and HotFraction choose the destinations of
	// ScenarioPattern (HotFraction applies to HotSpot only).
	Pattern     Pattern
	HotFraction float64
}

// Plan compiles the configuration into the deterministic flow
// schedule, ordered by sender and then by start time, except that
// ScenarioPattern returns its flows in arrival order.
func Plan(topo *topology.Topology, cfg PlanConfig) ([]Flow, error) {
	hosts := topo.Hosts()
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: plan needs at least 2 hosts, have %d", len(hosts))
	}
	if cfg.Sizes == nil {
		return nil, fmt.Errorf("workload: plan needs a size mix")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("workload: plan needs a positive horizon, got %v", cfg.Horizon)
	}
	if cfg.Fanin < 0 || cfg.Fanin > len(hosts)-1 {
		return nil, fmt.Errorf("workload: fanin %d outside [0, %d]", cfg.Fanin, len(hosts)-1)
	}
	mean, err := MeanGap(cfg.Load, cfg.Sizes.MeanBytes(), cfg.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	if cfg.Scenario == ScenarioPattern {
		return planPattern(hosts, cfg, mean)
	}

	// The destination chooser per sender index. Uniform draws from
	// the pattern chooser on its own stream; the structured scenarios
	// are deterministic functions of the sender's draw counter.
	fan := cfg.Fanin
	if fan == 0 {
		fan = len(hosts) - 1
	}
	var senders []int
	var dstFor func(senderIdx, draw int) topology.NodeID
	switch cfg.Scenario {
	case ScenarioUniform:
		dests, err := NewDestinations(hosts, Uniform, 0, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		for i := range hosts {
			senders = append(senders, i)
		}
		dstFor = func(senderIdx, _ int) topology.NodeID { return dests.Next(senderIdx) }
	case ScenarioIncast:
		// hosts[0] is the victim; the next fan hosts converge on it.
		for i := 1; i <= fan; i++ {
			senders = append(senders, i)
		}
		dstFor = func(_, _ int) topology.NodeID { return hosts[0] }
	case ScenarioOutcast:
		// hosts[0] sprays the next fan hosts round-robin.
		senders = []int{0}
		dstFor = func(_, draw int) topology.NodeID {
			return hosts[1+draw%fan]
		}
	case ScenarioAllToAll:
		for i := range hosts {
			senders = append(senders, i)
		}
		dstFor = func(senderIdx, draw int) topology.NodeID {
			// Cycle through every other host, offset so the first
			// destinations of the senders do not all collide.
			return hosts[(senderIdx+1+draw%(len(hosts)-1))%len(hosts)]
		}
	default:
		return nil, fmt.Errorf("workload: unknown scenario %d", int(cfg.Scenario))
	}

	var flows []Flow
	for ord, si := range senders {
		// Per-sender processes: arrival state and size draws are
		// private streams, so one sender's schedule never depends on
		// how many others exist.
		ap, err := NewArrival(cfg.Arrival, mean, rand.New(rand.NewSource(cfg.Seed+1000003*int64(ord+1))))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ (0x5DEECE66D * int64(ord+1))))
		draw := 0
		for t := nextArrival(0, ap, cfg.Horizon); t < cfg.Horizon; t = nextArrival(t, ap, cfg.Horizon) {
			if len(flows) >= maxPlanFlows {
				return nil, errTooManyFlows(cfg, len(senders))
			}
			flows = append(flows, Flow{
				Src:   hosts[si],
				Dst:   dstFor(si, draw),
				Bytes: cfg.Sizes.Sample(rng),
				Start: t,
			})
			draw++
		}
	}
	return flows, nil
}

// nextArrival returns the time of the process's next arrival after
// t, or the horizon when it lands at or after it (t is before it).
func nextArrival(t units.Time, ap ArrivalProcess, horizon units.Time) units.Time {
	if g := ap.Next(); g < horizon-t {
		return t + g
	}
	return horizon
}

func errTooManyFlows(cfg PlanConfig, senders int) error {
	return fmt.Errorf("workload: plan exceeds %d flows (load %v over horizon %v on %d senders); shrink the horizon or load",
		maxPlanFlows, cfg.Load, cfg.Horizon, senders)
}

// planPattern compiles ScenarioPattern. One stream seeded with
// cfg.Seed feeds the destination chooser and every host's arrival
// process, in the order an event-driven source draws them: the
// chooser's hot host (and permutation) first, then each host's first
// gap in host order, then per arrival its destination and the gap to
// its host's next arrival. Arrivals are taken by time, ties in the
// order their gaps were drawn. Sizes come from a private stream.
func planPattern(hosts []topology.NodeID, cfg PlanConfig, mean units.Time) ([]Flow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dests, err := NewDestinations(hosts, cfg.Pattern, cfg.HotFraction, rng)
	if err != nil {
		return nil, err
	}
	sizes := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	aps := make([]ArrivalProcess, len(hosts))
	q := &arrivals{host: make([]int, len(hosts)), at: make([]units.Time, len(hosts)), seq: make([]int, len(hosts))}
	for i := range hosts {
		if aps[i], err = NewArrival(cfg.Arrival, mean, rng); err != nil {
			return nil, err
		}
		q.host[i], q.at[i], q.seq[i] = i, nextArrival(0, aps[i], cfg.Horizon), i
	}
	heap.Init(q)
	var flows []Flow
	for draws := len(hosts); ; draws++ {
		i := q.host[0]
		start := q.at[i]
		if start >= cfg.Horizon {
			return flows, nil
		}
		if len(flows) >= maxPlanFlows {
			return nil, errTooManyFlows(cfg, len(hosts))
		}
		flows = append(flows, Flow{Src: hosts[i], Dst: dests.Next(i), Bytes: cfg.Sizes.Sample(sizes), Start: start})
		q.at[i], q.seq[i] = nextArrival(start, aps[i], cfg.Horizon), draws
		heap.Fix(q, 0)
	}
}

// arrivals is a heap of host ranks by each host's next arrival: by
// time, ties by the order the gaps were drawn. No host is added or
// removed; one whose arrivals reach the horizon sinks.
type arrivals struct {
	host []int
	at   []units.Time // by host rank
	seq  []int        // by host rank
}

func (a *arrivals) Len() int { return len(a.host) }
func (a *arrivals) Less(i, j int) bool {
	x, y := a.host[i], a.host[j]
	return a.at[x] < a.at[y] || a.at[x] == a.at[y] && a.seq[x] < a.seq[y]
}
func (a *arrivals) Swap(i, j int) { a.host[i], a.host[j] = a.host[j], a.host[i] }
func (a *arrivals) Push(any)      {}
func (a *arrivals) Pop() any      { return nil }
