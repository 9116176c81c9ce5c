package faults_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/recovery"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestFlapSequences drives the failure detector through NIC flap
// timelines and checks the suspected/confirmed distinction: an outage
// shorter than the detection window is retracted (suspected at most,
// never confirmed), a sustained outage is confirmed, and a
// down-up-down flap inside one window first earns a retraction and
// only the second outage the verdict.
func TestFlapSequences(t *testing.T) {
	const us = units.Microsecond
	cases := []struct {
		name   string
		events []faults.Event // Host filled in by the runner

		wantConfirmed uint64 // detector confirmations over the run
		wantDeadAtEnd int    // Controller.DeadHosts() after quiescence
		wantRestored  bool   // at least one retraction happened
		wantAlive     bool   // final detector belief about the victim
	}{
		{
			name: "blip-inside-detection-window",
			events: []faults.Event{
				{At: 100 * us, Kind: faults.NICStall},
				{At: 260 * us, Kind: faults.NICResume},
			},
			wantConfirmed: 0,
			wantDeadAtEnd: 0,
			wantAlive:     true,
		},
		{
			name: "sustained-outage",
			events: []faults.Event{
				{At: 100 * us, Kind: faults.NICStall},
			},
			wantConfirmed: 1,
			wantDeadAtEnd: 1,
		},
		{
			name: "down-up-down-within-window",
			events: []faults.Event{
				{At: 100 * us, Kind: faults.NICStall},
				{At: 400 * us, Kind: faults.NICResume},
				{At: 500 * us, Kind: faults.NICStall},
			},
			wantConfirmed: 1,
			wantDeadAtEnd: 1,
			wantRestored:  true,
		},
		{
			name: "down-up-down-then-heal",
			events: []faults.Event{
				{At: 100 * us, Kind: faults.NICStall},
				{At: 400 * us, Kind: faults.NICResume},
				{At: 500 * us, Kind: faults.NICStall},
				{At: 1600 * us, Kind: faults.NICResume},
			},
			wantConfirmed: 1,
			wantDeadAtEnd: 0, // resurrected by the standing probes
			wantRestored:  true,
			wantAlive:     true,
		},
	}
	topo, f := topology.Figure1()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			net := fabric.New(eng, topo, fabric.DefaultParams())
			tbl, err := routing.ITBRouting.BuildTable(topo, nil)
			if err != nil {
				t.Fatal(err)
			}
			var hosts []*gm.Host
			for _, h := range topo.Hosts() {
				hosts = append(hosts, gm.NewHost(eng, mcp.New(net, h, mcp.DefaultConfig(mcp.ITB)), tbl, gm.DefaultParams()))
			}
			mgr, err := recovery.NewManager(recovery.DefaultConfig(2000*us), recovery.Target{
				Eng: eng, Topo: topo,
				Base: tbl, Hosts: hosts, Monitor: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			mgr.Start()
			victim := f.Hosts[3]
			camp := faults.Campaign{Name: tc.name, Events: tc.events}
			for i := range camp.Events {
				camp.Events[i].Host = victim
			}
			ctl, err := faults.Attach(faults.Target{
				Eng: eng, Net: net, Topo: topo, Hosts: hosts, Recovery: mgr,
			}, camp)
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()

			st := mgr.Stats()
			if st.HostsConfirmed != tc.wantConfirmed {
				t.Errorf("confirmations = %d, want %d", st.HostsConfirmed, tc.wantConfirmed)
			}
			if got := ctl.DeadHosts(); got != tc.wantDeadAtEnd {
				t.Errorf("DeadHosts() = %d, want %d", got, tc.wantDeadAtEnd)
			}
			if tc.wantRestored && st.HostsRestored == 0 && st.Resurrections == 0 {
				t.Error("flap was never retracted (no restore/resurrection)")
			}
			if tc.wantAlive && mgr.StateOf(victim) != recovery.Alive {
				t.Errorf("final state = %v, want Alive", mgr.StateOf(victim))
			}
			if !tc.wantAlive && mgr.StateOf(victim) == recovery.Alive && tc.wantDeadAtEnd > 0 {
				t.Errorf("final state = Alive, want dead")
			}
			// No suspicion may linger once the engine quiesced: every
			// suspect either recovered or was confirmed.
			if got := ctl.Suspected(); got != 0 {
				t.Errorf("Suspected() = %d after quiescence, want 0", got)
			}
			cs := ctl.Stats()
			if cs.PeersConfirmed != tc.wantDeadAtEnd {
				t.Errorf("Stats().PeersConfirmed = %d, want %d", cs.PeersConfirmed, tc.wantDeadAtEnd)
			}
			if cs.EventsApplied != len(tc.events) {
				t.Errorf("EventsApplied = %d, want %d", cs.EventsApplied, len(tc.events))
			}
		})
	}
}
