package routing_test

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// The paper's Figure 1: the minimal path from switch 4 to switch 1 is
// forbidden by up*/down*; ITB routing splits it at a host of switch 6.
// Both routings orient the links from switch 0, the figure's root and
// the lowest-id switch.
func ExampleUpDownEngine_BuildTable() {
	topo, f := topology.Figure1()

	udTbl, _ := routing.UpDownRouting.BuildTable(topo, nil)
	itbTbl, _ := routing.ITBRouting.BuildTable(topo, nil)

	src, dst := f.Hosts[4], f.Hosts[1]
	udRoute, _ := udTbl.Lookup(src, dst)
	itbRoute, _ := itbTbl.Lookup(src, dst)
	fmt.Printf("up*/down*: %d switch crossings, %d ITBs\n",
		udRoute.SwitchCrossings(), udRoute.NumITBs())
	fmt.Printf("with ITBs: %d switch crossings, %d ITBs\n",
		itbRoute.SwitchCrossings(), itbRoute.NumITBs())
	fmt.Println("deadlock free:",
		routing.CheckDeadlockFree(itbTbl.Routes()) == nil)
	// Output:
	// up*/down*: 4 switch crossings, 0 ITBs
	// with ITBs: 4 switch crossings, 1 ITBs
	// deadlock free: true
}

func ExampleCheckDeadlockFree() {
	topo := topology.Ring(6, 1)
	tbl, _ := routing.UpDownRouting.BuildTable(topo, nil)
	fmt.Println(routing.CheckDeadlockFree(tbl.Routes()))
	// Output: <nil>
}
