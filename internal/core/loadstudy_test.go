package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mcp"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// smallLoadStudy is a trimmed grid that still exercises every cell
// family: one open-loop plan, the collective and the RPC mesh, on the
// smallest fat-tree, under two engines.
func smallLoadStudy(seed int64) LoadStudyConfig {
	cfg := DefaultLoadStudyConfig(seed)
	cfg.Presets = []string{"fattree-16"}
	cfg.Engines = []string{"updown-itb", "minimal-escape"}
	cfg.Patterns = []string{"uniform", "allreduce", "rpc"}
	cfg.Loads = []float64{0.3}
	cfg.Window = 150 * units.Microsecond
	cfg.Warmup = 30 * units.Microsecond
	cfg.VectorLen = 64
	return cfg
}

// The tentpole contract: the full study — rows, CSV and merged
// metrics — is byte-identical at workers=1 and workers=4.
func TestLoadStudyDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		cfg := smallLoadStudy(5)
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		res, err := RunLoadStudy(cfg)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		if err := res.WriteCSV(&sb); err != nil {
			return "", err
		}
		if err := reg.Snapshot().WriteJSON(&sb); err != nil {
			return "", err
		}
		return sb.String(), nil
	})
}

func TestLoadStudyRows(t *testing.T) {
	cfg := smallLoadStudy(5)
	res, err := RunLoadStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1*2*3*1 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Hosts != 16 {
			t.Errorf("%s/%s: hosts = %d", row.Pattern, row.Engine, row.Hosts)
		}
		if row.Offered != 0.3 {
			t.Errorf("%s/%s: offered = %v", row.Pattern, row.Engine, row.Offered)
		}
		if row.Delivered <= 0 {
			t.Errorf("%s/%s: delivered = %v", row.Pattern, row.Engine, row.Delivered)
		}
		if row.FlowsSent == 0 {
			t.Errorf("%s/%s: no flows sent", row.Pattern, row.Engine)
		}
		switch row.Pattern {
		case "allreduce":
			if row.Collective <= 0 {
				t.Errorf("allreduce/%s: no collective time", row.Engine)
			}
			if row.FlowsDone != row.FlowsSent {
				t.Errorf("allreduce/%s: %d/%d hops", row.Engine, row.FlowsDone, row.FlowsSent)
			}
		case "uniform":
			if row.FlowsDone == 0 || row.P99 < row.P50 {
				t.Errorf("uniform/%s: done=%d p50=%v p99=%v", row.Engine, row.FlowsDone, row.P50, row.P99)
			}
		case "rpc":
			if row.FlowsDone == 0 {
				t.Errorf("rpc/%s: no RPCs completed", row.Engine)
			}
		}
	}
	if res.SizesName != "websearch" || res.SizesMean <= 0 {
		t.Errorf("sizes = %q mean %v", res.SizesName, res.SizesMean)
	}
}

func TestLoadStudyCSV(t *testing.T) {
	cfg := smallLoadStudy(5)
	cfg.Patterns = []string{"incast"}
	cfg.Engines = []string{"updown-itb"}
	res, err := RunLoadStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "preset,pattern,engine,hosts,offered") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "fattree-16,incast,updown-itb,16,0.3000") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestLoadStudyMetricsPrefixes(t *testing.T) {
	cfg := smallLoadStudy(5)
	cfg.Patterns = []string{"uniform"}
	cfg.Engines = []string{"updown-itb"}
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if _, err := RunLoadStudy(cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var sb strings.Builder
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fattree-16.uniform.updown-itb.load030.") {
		t.Error("cell metrics prefix missing from snapshot")
	}
}

func TestLoadStudyValidation(t *testing.T) {
	bad := smallLoadStudy(5)
	bad.Engines = []string{"warp-drive"}
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("unknown engine accepted")
	}
	bad = smallLoadStudy(5)
	bad.Patterns = []string{"chaos"}
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("unknown pattern accepted")
	}
	bad = smallLoadStudy(5)
	bad.Presets = []string{"fattree16"}
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("malformed preset accepted")
	}
	bad = smallLoadStudy(5)
	bad.Presets = []string{"hypercube-64"}
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("unknown topology class accepted")
	}
	bad = smallLoadStudy(5)
	bad.Loads = nil
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("empty load axis accepted")
	}
	bad = smallLoadStudy(5)
	bad.Window = 0
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("zero window accepted")
	}
	bad = smallLoadStudy(5)
	bad.Sizes = workload.SizeMixConfig{Kind: "zipf"}
	if _, err := RunLoadStudy(bad); err == nil {
		t.Error("unknown size mix accepted")
	}
}

// TestVariantFor pins the one firmware rule of every cluster a study
// builds: stock up*/down* runs the original MCP under any orientation
// or root, and every other engine runs the ITB firmware.
func TestVariantFor(t *testing.T) {
	root := topology.NodeID(3)
	for _, eng := range []*routing.UpDownEngine{
		routing.UpDownRouting, {DFS: true}, {Root: &root},
	} {
		if got := variantFor(eng); got != mcp.Original {
			t.Errorf("%v runs %v, want the original MCP", eng, got)
		}
	}
	itb := []routing.Engine{routing.ITBRouting, &routing.UpDownEngine{ITB: true, DFS: true}}
	itb = append(itb, routing.Engines()...)
	for _, arm := range []string{"vc", "itb+vc"} {
		eng, err := vcArmEngine(arm, 2)
		if err != nil {
			t.Fatal(err)
		}
		itb = append(itb, eng)
	}
	for _, eng := range itb {
		if got := variantFor(eng); got != mcp.ITB {
			t.Errorf("%s runs %v, want the ITB firmware", eng.Name(), got)
		}
	}
}

// The engine override on the cluster config must actually route: a
// cluster built through Config.Engine has a table every host pair can
// use, and the study's collective certifies end-to-end delivery on it.
func TestClusterEngineOverride(t *testing.T) {
	text, err := topoText(engineStudyTopology("fattree", 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	eng, ok := routing.EngineByName("layered-ksp")
	if !ok {
		t.Fatal("layered-ksp not registered")
	}
	cl, err := loadCluster(text, eng, 0, true, false, runObs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckDeadlockFree(); err != nil {
		t.Fatal(err)
	}
	coll, err := workload.StartAllreduce(cl.Eng, cl.Topo.Hosts(), cl.Host, workload.CollectiveConfig{
		VectorLen: 16, Port: 1, SendTokens: 4, RecvTokens: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if !coll.Done() {
		t.Fatal("collective did not complete on an engine-built cluster")
	}
	if got, want := coll.Checksum(), workload.ExpectedChecksum(16, 16); got != want {
		t.Errorf("checksum %d, want %d", got, want)
	}
}

// TestLoadCollectiveDeadlineReportsProgress forces an allreduce cell
// past its deadline (Warmup + 4000*Window, here 70 µs, far short of a
// 16-host ring allreduce) and checks that the error reports GM and
// fabric progress: hops delivered, GM retransmits and duplicate drops,
// and fabric deliveries.
func TestLoadCollectiveDeadlineReportsProgress(t *testing.T) {
	cfg := smallLoadStudy(5)
	cfg.Engines = []string{"updown-itb"}
	cfg.Patterns = []string{"allreduce"}
	cfg.Window = 10 * units.Nanosecond
	_, err := RunLoadStudy(cfg)
	if err == nil {
		t.Fatal("allreduce finished inside a 70 µs deadline")
	}
	m := regexp.MustCompile(`did not complete by .* \((\d+) hops delivered; GM (\d+) retransmits, (\d+) duplicate drops; fabric (\d+) deliveries\)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("deadline error does not report GM and fabric progress: %v", err)
	}
	if hops, _ := strconv.Atoi(m[1]); hops >= 2*15 {
		t.Errorf("%d hops delivered, but the 30-hop allreduce did not complete", hops)
	}
	if deliveries, _ := strconv.Atoi(m[4]); deliveries == 0 {
		t.Errorf("fabric delivered nothing before the deadline: %v", err)
	}
}
