// Mapping: GM's network discovery, run as a real protocol. A mapper
// host knows nothing but its own NIC; it emits scout packets with
// trial source routes into the simulated fabric, remote MCPs answer
// probes with their identity, and routes that loop home pin the
// switch wiring. The discovered map then feeds the route computation
// — the full "network mapping and route computation" pipeline the
// paper's GM description lists.
package main

import (
	"fmt"
	"log"

	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	// A 12-switch irregular cluster the mapper has never seen.
	topo, err := topology.Generate(topology.DefaultGenConfig(12, 42))
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	var mine *mcp.MCP
	for _, h := range topo.Hosts() {
		m := mcp.New(net, h, mcp.DefaultConfig(mcp.ITB))
		if mine == nil {
			mine = m
		}
	}

	res, err := mapper.New(mine, mapper.DefaultConfig()).Discover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d switches, %d hosts, %d cables with %d scout packets (%s of network time)\n",
		res.Switches, len(res.Hosts), len(res.Cables), res.Probes, eng.Now())
	if err := res.Matches(topo); err != nil {
		log.Fatalf("map does not match the wiring: %v", err)
	}
	fmt.Println("map verified against the physical wiring")

	// Compute ITB routes on the reconstruction, as the paper's
	// modified mapper does.
	rebuilt, _, err := res.BuildTopology(8)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := routing.ITBRouting.BuildTable(rebuilt, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := routing.CheckDeadlockFree(tbl.Routes()); err != nil {
		log.Fatal(err)
	}
	an := routing.Analyze(rebuilt, tbl.Orientation(), tbl)
	fmt.Printf("computed %d ITB routes on the discovered map: %.0f%% minimal, avg %.2f ITBs/route, deadlock free\n",
		an.Routes, 100*an.MinimalFraction, an.AvgITBs)
}
