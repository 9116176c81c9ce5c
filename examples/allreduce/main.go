// Allreduce: the kind of parallel-computing workload COWs were built
// for (the paper's motivation). Every host holds a vector; a ring
// allreduce circulates partial sums through GM ports until every host
// has the global sum. The collective's critical path is chained
// point-to-point latency, so routing quality shows directly in the
// completion time: we run the same collective under up*/down* and
// under ITB routing on an irregular 16-switch cluster.
//
// The collective itself and the background load both come from
// internal/workload — this example is the thin narrative wrapper; the
// same drivers power `itbsim -exp load`.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

const vectorLen = 1024 // float-sized words per host

func main() {
	topo, err := topology.Generate(topology.DefaultGenConfig(16, 9))
	if err != nil {
		log.Fatal(err)
	}
	for _, background := range []bool{false, true} {
		label := "idle network"
		if background {
			label = "with background traffic (uniform, 0.06 load)"
		}
		fmt.Printf("%s:\n", label)
		var times [2]units.Time
		for i, alg := range []*routing.UpDownEngine{routing.UpDownRouting, routing.ITBRouting} {
			took, sum, err := runAllreduce(topo, alg, background)
			if err != nil {
				log.Fatal(err)
			}
			times[i] = took
			fmt.Printf("  %-16s allreduce of %d words over %d hosts: %12s (checksum %d)\n",
				alg, vectorLen, len(topo.Hosts()), took, sum)
		}
		fmt.Printf("  speedup from ITBs: %.2fx\n\n", float64(times[0])/float64(times[1]))
	}
	fmt.Println("On an idle network the collective sees no benefit (and a tiny ITB")
	fmt.Println("detour penalty), exactly as the paper predicts; once the network")
	fmt.Println("carries load, minimal balanced routes shorten the chained critical")
	fmt.Println("path on every ring step.")
}

// runAllreduce times workload.StartAllreduce's ring collective on a
// fresh cluster. With background set, an open-loop uniform plan from
// the same workload package injects 512-byte messages at 0.06 offered
// load around the collective until it completes.
func runAllreduce(topo *topology.Topology, alg *routing.UpDownEngine, background bool) (units.Time, uint64, error) {
	cfg := core.DefaultConfig(topo, alg, mcp.ITB)
	if background {
		// Loaded ITB networks need the paper's proposed buffer pool
		// (section 4); give both routings the same pool for fairness.
		// GM's reliability stays on, so any overflow flush is
		// retransmitted and the collective cannot lose its token.
		cfg.MCP.BufferPool = true
		cfg.MCP.RecvBuffers = 64
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	hosts := topo.Hosts()
	ccfg := workload.DefaultCollectiveConfig()
	ccfg.VectorLen = vectorLen
	coll, err := workload.StartAllreduce(cl.Eng, hosts, cl.Host, ccfg)
	if err != nil {
		return 0, 0, err
	}

	// Background load: a pre-compiled open-loop schedule, replayed
	// until the collective lands. The plan horizon is deliberately
	// generous; injection stops the moment the collective is done, so
	// an early finish never pays for the unused tail.
	if background {
		sizes, err := workload.FixedSize(512)
		if err != nil {
			return 0, 0, err
		}
		flows, err := workload.Plan(topo, workload.PlanConfig{
			Scenario:      workload.ScenarioUniform,
			Load:          0.06,
			Arrival:       workload.ArrivalConfig{Kind: workload.Poisson},
			Sizes:         sizes,
			Seed:          77,
			Horizon:       200 * units.Millisecond,
			LinkBandwidth: cl.Net.Params().LinkBandwidth,
		})
		if err != nil {
			return 0, 0, err
		}
		for _, f := range flows {
			f := f
			cl.Eng.Schedule(f.Start, func() {
				if coll.Done() {
					return
				}
				if err := cl.Host(f.Src).Send(f.Dst, make([]byte, f.Bytes)); err != nil {
					panic(err)
				}
			})
		}
	}

	cl.Eng.Run()
	if !coll.Done() {
		return 0, 0, fmt.Errorf("allreduce did not complete")
	}
	if got, want := coll.Checksum(), workload.ExpectedChecksum(len(hosts), vectorLen); got != want {
		return 0, 0, fmt.Errorf("allreduce checksum %d, want %d", got, want)
	}
	return coll.DoneAt(), coll.Checksum(), nil
}
