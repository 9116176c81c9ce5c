package routing

import (
	"testing"

	"repro/internal/topology"
)

// linkBetween finds the id of a link joining a and b.
func linkBetween(t *testing.T, tp *topology.Topology, a, b topology.NodeID) int {
	t.Helper()
	for _, l := range tp.Links() {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l.ID
		}
	}
	t.Fatalf("no link between %d and %d", a, b)
	return -1
}

// TestRecomputeAvoidingFigure1 drives the ITB route recomputation
// through its edge cases on the paper's Figure 1 network, where the
// minimal path between the hosts of switches 4 and 1 crosses switch 6
// with a down->up violation on the final inter-switch hop, repaired by
// an in-transit buffer at switch 6's only host.
func TestRecomputeAvoidingFigure1(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDown(tp)
	src, dst := f.Hosts[4], f.Hosts[1]
	itbHost := f.Hosts[6]

	cases := []struct {
		name  string
		avoid func() *Avoid
		src   topology.NodeID
		dst   topology.NodeID
		// wantRoute false asserts the pair is omitted from the table.
		wantRoute bool
		// wantITBs, when >= 0, asserts the exact in-transit count.
		wantITBs int
	}{
		{
			// The healthy network takes the minimal path and repairs
			// its final-hop violation with the ITB at switch 6.
			name:      "baseline-uses-itb",
			avoid:     func() *Avoid { return nil },
			src:       src,
			dst:       dst,
			wantRoute: true,
			wantITBs:  1,
		},
		{
			// The in-transit host itself is the failed host. Switch 6
			// has no other host, so no minimal path is ITB-repairable:
			// the documented fallback is a pure up*/down* route.
			name:      "failed-itb-host-falls-back-to-ud",
			avoid:     func() *Avoid { return AvoidLinks().AddHost(itbHost) },
			src:       src,
			dst:       dst,
			wantRoute: true,
			wantITBs:  0,
		},
		{
			// Same violation in the reverse direction: the down->up
			// transition sits on the final hop into switch 4, with the
			// reset at switch 6 just before it.
			name:      "violation-at-final-hop-reverse",
			avoid:     func() *Avoid { return nil },
			src:       dst,
			dst:       src,
			wantRoute: true,
			wantITBs:  1,
		},
		{
			// Reverse direction with every candidate in-transit host
			// dead: same up*/down* fallback.
			name:      "reverse-all-candidates-dead",
			avoid:     func() *Avoid { return AvoidLinks().AddHost(itbHost) },
			src:       dst,
			dst:       src,
			wantRoute: true,
			wantITBs:  0,
		},
		{
			// Failing the ITB host's uplink (rather than marking the
			// host) must count it dead all the same.
			name:      "failed-itb-host-link",
			avoid:     func() *Avoid { return AvoidLinks(linkBetween(t, tp, itbHost, f.Switches[6])) },
			src:       src,
			dst:       dst,
			wantRoute: true,
			wantITBs:  0,
		},
		{
			// Failing the cross link removes the minimal path entirely;
			// the route must re-form over the tree without it.
			name:      "failed-cross-link",
			avoid:     func() *Avoid { return AvoidLinks(linkBetween(t, tp, f.Switches[4], f.Switches[6])) },
			src:       src,
			dst:       dst,
			wantRoute: true,
			wantITBs:  -1, // any repairable or UD route is fine; links checked below
		},
		{
			// A dead destination gets no route at all: GM fails the
			// send instead of launching a packet at a dead NIC.
			name:      "dead-destination-omitted",
			avoid:     func() *Avoid { return AvoidLinks().AddHost(dst) },
			src:       src,
			dst:       dst,
			wantRoute: false,
			wantITBs:  -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			avoid := tc.avoid()
			tbl, err := ITBRouting.BuildTable(tp, avoid)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := tbl.Lookup(tc.src, tc.dst)
			if ok != tc.wantRoute {
				t.Fatalf("Lookup(%d,%d) = %v, want %v", tc.src, tc.dst, ok, tc.wantRoute)
			}
			if !ok {
				return
			}
			if tc.wantITBs >= 0 && r.NumITBs() != tc.wantITBs {
				t.Errorf("route %v: NumITBs = %d, want %d", r, r.NumITBs(), tc.wantITBs)
			}
			for _, h := range r.ITBHosts() {
				if avoid.hostDead(tp, h) {
					t.Errorf("route %v: uses dead in-transit host %d", r, h)
				}
			}
			for _, tr := range r.LinkPath() {
				if avoid.avoidsLink(tr.Link.ID) {
					t.Errorf("route %v: traverses failed link %d", r, tr.Link.ID)
				}
			}
			if err := r.Validate(tp, ud); err != nil {
				t.Errorf("route %v: %v", r, err)
			}
		})
	}
}

// TestRecomputeAvoidingTestbed covers the two-switch testbed: its ITB
// host hangs off switch 1, so failing it must leave host1<->host2
// traffic on plain up*/down* routes, and failing one inter-switch
// cable must steer routes onto the survivors.
func TestRecomputeAvoidingTestbed(t *testing.T) {
	tp, n := topology.Testbed()
	ud := topology.BuildUpDown(tp)

	t.Run("failed-itb-host", func(t *testing.T) {
		avoid := AvoidLinks().AddHost(n.InTransit)
		tbl, err := ITBRouting.BuildTable(tp, avoid)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := tbl.Lookup(n.Host1, n.Host2)
		if !ok {
			t.Fatal("host1->host2 unroutable with ITB host down")
		}
		for _, h := range r.ITBHosts() {
			if h == n.InTransit {
				t.Errorf("route %v still uses dead in-transit host", r)
			}
		}
		if err := r.Validate(tp, ud); err != nil {
			t.Errorf("route %v: %v", r, err)
		}
	})

	t.Run("failed-inter-switch-cable", func(t *testing.T) {
		dead := linkBetween(t, tp, n.Switch1, n.Switch2)
		tbl, err := ITBRouting.BuildTable(tp, AvoidLinks(dead))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() == 0 {
			t.Fatal("no routes survive a single cable fault")
		}
		for _, r := range tbl.Routes() {
			for _, tr := range r.LinkPath() {
				if tr.Link.ID == dead {
					t.Errorf("route %v traverses failed link %d", r, dead)
				}
			}
		}
	})

	t.Run("all-inter-switch-cables-dead-partitions", func(t *testing.T) {
		// With every switch1-switch2 cable down the testbed splits;
		// cross-partition pairs must be omitted, same-side pairs kept.
		var cut []int
		for _, l := range tp.Links() {
			if (l.A == n.Switch1 && l.B == n.Switch2) || (l.A == n.Switch2 && l.B == n.Switch1) {
				cut = append(cut, l.ID)
			}
		}
		if len(cut) != 3 {
			t.Fatalf("testbed has %d inter-switch cables, want 3", len(cut))
		}
		tbl, err := ITBRouting.BuildTable(tp, AvoidLinks(cut...))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tbl.Lookup(n.Host1, n.Host2); ok {
			t.Error("host1->host2 routed across a fully cut partition")
		}
		if _, ok := tbl.Lookup(n.Host1, n.InTransit); !ok {
			t.Error("host1->in-transit (same side) lost its route")
		}
	})
}
