// Command mapper plays the role of the (modified) Myrinet mapper: it
// computes the up*/down* orientation and the source-route tables of a
// topology — stock or with in-transit buffers — prints them, and
// verifies deadlock freedom via channel-dependency-graph analysis.
//
// With -discover, the tool does not read the ground-truth wiring:
// it runs the scout-packet mapping protocol from one host's NIC over
// the simulated fabric, reconstructs the topology from probe replies,
// and verifies the result against the truth.
//
// Usage:
//
//	mapper -topology testbed
//	mapper -topology figure1 -routing itb
//	mapper -topology random -switches 16 -seed 7 -routing itb -dot net.dot
//	mapper -topology random -switches 16 -discover
//	mapper -topology file:net.topo -routing itb
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	topoName := flag.String("topology", "testbed", "testbed, figure1, random, or file:<path>")
	alg := flag.String("routing", "both", "updown, itb, or both")
	switches := flag.Int("switches", 8, "switch count for -topology random")
	seed := flag.Int64("seed", 1, "seed for -topology random")
	dotFile := flag.String("dot", "", "write the topology in Graphviz DOT form to this file")
	verbose := flag.Bool("v", false, "print every route")
	discover := flag.Bool("discover", false, "run the scout-packet discovery protocol instead of reading the wiring")
	flag.Parse()

	// The routing choice is checked before any output or discovery.
	type namedAlg struct {
		name string
		alg  *routing.UpDownEngine
	}
	updown, itb := namedAlg{"up*/down*", routing.UpDownRouting}, namedAlg{"ITB", routing.ITBRouting}
	var algs []namedAlg
	switch *alg {
	case "updown":
		algs = []namedAlg{updown}
	case "itb":
		algs = []namedAlg{itb}
	case "both":
		algs = []namedAlg{updown, itb}
	default:
		fatal(fmt.Errorf("unknown routing %q (updown, itb, or both)", *alg))
	}

	var topo *topology.Topology
	switch {
	case *topoName == "testbed":
		topo, _ = topology.Testbed()
	case *topoName == "figure1":
		topo, _ = topology.Figure1()
	case *topoName == "random":
		var err error
		topo, err = topology.Generate(topology.DefaultGenConfig(*switches, *seed))
		if err != nil {
			fatal(err)
		}
	case strings.HasPrefix(*topoName, "file:"):
		f, err := os.Open(strings.TrimPrefix(*topoName, "file:"))
		if err != nil {
			fatal(err)
		}
		topo, err = topology.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := topo.Validate(); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown topology %q (testbed, figure1, random, or file:<path>)", *topoName))
	}
	if *discover {
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
			fatal(err)
		}
		fmt.Printf("discovery from host %d: %d probes over %s of network time\n",
			mine.Host(), res.Probes, eng.Now())
		fmt.Printf("found %d switches, %d hosts, %d cables\n",
			res.Switches, len(res.Hosts), len(res.Cables))
		if err := res.Matches(topo); err != nil {
			fatal(fmt.Errorf("discovered map does not match the wiring: %w", err))
		}
		fmt.Println("discovered map matches the physical wiring")
		rebuilt, _, err := res.BuildTopology(8)
		if err != nil {
			fatal(err)
		}
		topo = rebuilt // route computation below runs on the discovery result
	}

	ud := topology.BuildUpDown(topo)
	fmt.Printf("topology %s: %d switches, %d hosts, %d links; up*/down* root switch %d\n",
		*topoName, len(topo.Switches()), len(topo.Hosts()), len(topo.Links()), ud.Root)

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fatal(err)
		}
		if err := topology.WriteDOT(f, topo, ud); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotFile)
	}

	for _, a := range algs {
		tbl, err := a.alg.BuildTable(topo, nil)
		if err != nil {
			fatal(err)
		}
		an := routing.Analyze(topo, ud, tbl)
		fmt.Printf("\n%s routing: %d routes\n", a.name, an.Routes)
		fmt.Printf("  avg hops %.2f (max %d), minimal %.0f%%, avg ITBs %.2f (max %d)\n",
			an.AvgLinkHops, an.MaxLinkHops, 100*an.MinimalFraction, an.AvgITBs, an.MaxITBs)
		fmt.Printf("  channel load CV %.2f, max channel load %d, %.0f%% of routes cross the root\n",
			an.LinkLoadCV, an.MaxChannelLoad, 100*an.RootFraction)
		if err := routing.CheckDeadlockFree(tbl.Routes()); err != nil {
			fmt.Printf("  DEADLOCK: %v\n", err)
		} else {
			fmt.Printf("  channel dependency graph is acyclic: deadlock free\n")
		}
		if *verbose {
			for _, src := range topo.Hosts() {
				for _, dst := range topo.Hosts() {
					if src == dst {
						continue
					}
					if r, ok := tbl.Lookup(src, dst); ok {
						fmt.Printf("  %s\n", r)
					}
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapper:", err)
	os.Exit(1)
}
