// Minimal routes: the paper's Figure 1 scenario. On the 7-switch
// irregular network, the minimal path from switch 4 to switch 1 (via
// switch 6) is forbidden by up*/down* — it needs an up hop after a
// down hop — so stock routing takes a longer path through the tree.
// An in-transit buffer at a host of switch 6 splits the minimal path
// into two legal sub-paths.
//
// The example prints both routes, proves the route sets deadlock free,
// and then actually races the two strategies on the simulated network.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	topo, f := topology.Figure1()
	src, dst := f.Hosts[4], f.Hosts[1]
	// Both routings orient the links from the figure's root switch.
	root := f.Switches[0]
	algs := []*routing.UpDownEngine{{Root: &root}, {ITB: true, Root: &root}}

	for _, alg := range algs {
		tbl, err := alg.BuildTable(topo, nil)
		if err != nil {
			log.Fatal(err)
		}
		r, _ := tbl.Lookup(src, dst)
		fmt.Printf("%-18s %s\n", alg.String()+":", r)
		if err := routing.CheckDeadlockFree(tbl.Routes()); err != nil {
			log.Fatalf("%v routes not deadlock free: %v", alg, err)
		}
	}

	// Race the two strategies end to end: one-way message latency from
	// the host at switch 4 to the host at switch 1.
	fmt.Println()
	for _, alg := range algs {
		cl, err := core.NewCluster(core.DefaultConfig(topo, alg, mcp.ITB))
		if err != nil {
			log.Fatal(err)
		}
		var got units.Time
		cl.Host(dst).OnMessage = func(_ topology.NodeID, _ []byte, t units.Time) { got = t }
		if err := cl.Host(src).Send(dst, make([]byte, 1024)); err != nil {
			log.Fatal(err)
		}
		cl.Eng.Run()
		fmt.Printf("%-18s one-way latency for 1KB host@sw4 -> host@sw1: %s\n", alg.String()+":", got)
	}
	fmt.Println("\nOn an unloaded network the ITB detour costs ~1.3us; its payoff is")
	fmt.Println("shorter paths, balanced links and relieved contention under load")
	fmt.Println("(run `itbsim -exp throughput` to see the throughput side).")
}
