// Integration tests for the closed-loop drivers, run on real clusters.
// External test package: core imports workload, so these import core
// from outside to avoid the cycle.
package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// driverCluster builds a 16-host fat-tree cluster under ITB routing.
func driverCluster(t *testing.T) *core.Cluster {
	t.Helper()
	topo, err := topology.FatTree(topology.DefaultFatTreeConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(core.DefaultConfig(topo, routing.ITBRouting, mcp.ITB))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestAllreduceRing(t *testing.T) {
	cl := driverCluster(t)
	hosts := cl.Topo.Hosts()
	cfg := workload.DefaultCollectiveConfig()
	cfg.VectorLen = 64
	hopCount := 0
	cfg.OnHop = func(latency, _ units.Time) {
		hopCount++
		if latency <= 0 {
			t.Errorf("non-positive hop latency %v", latency)
		}
	}
	coll, err := workload.StartAllreduce(cl.Eng, hosts, cl.Host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if !coll.Done() {
		t.Fatal("collective did not complete")
	}
	if got, want := coll.Checksum(), workload.ExpectedChecksum(len(hosts), cfg.VectorLen); got != want {
		t.Errorf("checksum %d, want %d", got, want)
	}
	wantHops := 2*len(hosts) - 2 // two passes around the ring
	if coll.Hops() != wantHops || hopCount != wantHops {
		t.Errorf("hops = %d (observed %d), want %d", coll.Hops(), hopCount, wantHops)
	}
	if coll.DoneAt() <= 0 {
		t.Errorf("DoneAt = %v", coll.DoneAt())
	}
}

// The checksum's closed form, independent of message interleaving.
func TestAllreduceChecksumClosedForm(t *testing.T) {
	// n ranks each contribute word j = rank+j over L words:
	// sum = n*L(L-1)/2 + L*n(n-1)/2.
	if got := workload.ExpectedChecksum(4, 8); got != 4*8*7/2+8*4*3/2 {
		t.Errorf("ExpectedChecksum(4,8) = %d", got)
	}
}

func TestAllreduceErrors(t *testing.T) {
	cl := driverCluster(t)
	hosts := cl.Topo.Hosts()
	cfg := workload.DefaultCollectiveConfig()
	if _, err := workload.StartAllreduce(cl.Eng, hosts[:1], cl.Host, cfg); err == nil {
		t.Error("single-host collective accepted")
	}
	bad := cfg
	bad.VectorLen = 0
	if _, err := workload.StartAllreduce(cl.Eng, hosts, cl.Host, bad); err == nil {
		t.Error("zero vector accepted")
	}
}

func TestRPCFanout(t *testing.T) {
	cl := driverCluster(t)
	hosts := cl.Topo.Hosts()
	cfg := workload.RPCConfig{
		Fanout:        3,
		RequestBytes:  128,
		ReplyBytes:    256,
		Load:          0.1,
		Seed:          11,
		Warmup:        20 * units.Microsecond,
		Horizon:       220 * units.Microsecond,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	}
	mesh, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.RunUntil(2 * units.Millisecond)
	st := mesh.Stats()
	if st.Issued == 0 {
		t.Fatal("no RPCs issued")
	}
	if st.Completed == 0 {
		t.Fatal("no RPCs completed at low load")
	}
	if st.Completed > st.Issued {
		t.Errorf("completed %d > issued %d", st.Completed, st.Issued)
	}
	if st.FCT.N() != int(st.Completed) {
		t.Errorf("FCT samples %d != completed %d", st.FCT.N(), st.Completed)
	}
	if st.DeliveredBytes == 0 {
		t.Error("no bytes delivered")
	}
}

func TestRPCFanoutErrors(t *testing.T) {
	cl := driverCluster(t)
	hosts := cl.Topo.Hosts()
	base := workload.RPCConfig{
		Fanout: 3, RequestBytes: 128, ReplyBytes: 256, Load: 0.1,
		Warmup: 0, Horizon: units.Microsecond,
		LinkBandwidth: cl.Net.Params().LinkBandwidth,
	}
	bad := base
	bad.Fanout = len(hosts)
	if _, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, bad); err == nil {
		t.Error("fanout >= hosts accepted")
	}
	bad = base
	bad.RequestBytes = 8
	if _, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, bad); err == nil {
		t.Error("undersized request accepted")
	}
	bad = base
	bad.Horizon = 0
	if _, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, bad); err == nil {
		t.Error("horizon <= warmup accepted")
	}
	bad = base
	bad.Load = 0
	if _, err := workload.StartRPCFanout(cl.Eng, hosts, cl.Host, bad); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := workload.StartRPCFanout(cl.Eng, hosts[:1], cl.Host, base); err == nil {
		t.Error("single-host mesh accepted")
	}
}
