package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// runCurve runs one offered-load curve on the seed-5 irregular
// network. The unit tests keep their networks and windows small; the
// full-size studies live in the benchmark harness.
func runCurve(t *testing.T, c curve, window units.Time) SweepResult {
	t.Helper()
	res, err := runCurves([]curve{c}, nil, 5, window, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestSweepLowLoadDeliversOffered(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: routing.UpDownRouting, loads: []float64{0.05}}, 400*units.Microsecond)
	p := res.Points[0]
	if p.Delivered == 0 {
		t.Fatal("nothing delivered at low load")
	}
	// Far below saturation, accepted should track offered within the
	// statistical noise of a short window.
	if p.Accepted < p.Offered*0.5 || p.Accepted > p.Offered*1.5 {
		t.Errorf("accepted %.4f vs offered %.4f at low load", p.Accepted, p.Offered)
	}
	if p.AvgLatency() <= 0 || p.P99Latency() < p.AvgLatency() {
		t.Errorf("latencies inconsistent: avg %v p99 %v", p.AvgLatency(), p.P99Latency())
	}
}

// A point without latency samples reads 0 for both figures.
func TestLoadPointLatencyWithoutSamples(t *testing.T) {
	for _, p := range []LoadPoint{{}, {Latencies: &stats.Summary{}}} {
		if p.AvgLatency() != 0 || p.P99Latency() != 0 {
			t.Errorf("%+v: avg %v p99 %v, want 0", p, p.AvgLatency(), p.P99Latency())
		}
	}
}

func TestSweepSaturates(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: routing.UpDownRouting, loads: []float64{0.1, 1.0}}, 400*units.Microsecond)
	low, high := res.Points[0], res.Points[1]
	// At full offered load the network cannot accept everything:
	// accepted plateaus below offered, and latency explodes.
	if high.Accepted >= 0.95 {
		t.Errorf("accepted %.3f at offered 1.0: no saturation visible", high.Accepted)
	}
	if high.AvgLatency() <= low.AvgLatency() {
		t.Errorf("latency did not grow with load: %v -> %v", low.AvgLatency(), high.AvgLatency())
	}
}

func TestITBBeatsUpDownThroughput(t *testing.T) {
	// The headline claim: on irregular networks ITB routing clearly
	// outperforms up*/down*. The full ~2x shows on 32-switch networks
	// and longer windows (see the benchmark harness); here we demand
	// a strict win on a 16-switch instance, where the gap is wide
	// enough (~1.6x at full windows) to survive a short test window.
	res, err := runCurves(udAndITB(curve{switches: 16, loads: []float64{0.4, 0.8}}), nil, 5, 500*units.Microsecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ud, itb := res[0], res[1]
	if itb.Throughput <= ud.Throughput {
		t.Errorf("ITB throughput %.3f <= up*/down* %.3f", itb.Throughput, ud.Throughput)
	}
	// Route quality: ITB routes are all minimal and better balanced.
	if itb.RouteStats.MinimalFraction != 1 {
		t.Errorf("ITB minimal fraction = %.2f", itb.RouteStats.MinimalFraction)
	}
	if itb.RouteStats.AvgLinkHops > ud.RouteStats.AvgLinkHops {
		t.Error("ITB routes longer than up*/down*")
	}
}

// TestOpenLoopMessageSizeFloor checks that every open-loop study
// with a configurable message size rejects a message below
// workload.MinFlowBytes up front, with an error that names the bound,
// rather than running or failing inside a cell.
func TestOpenLoopMessageSizeFloor(t *testing.T) {
	studies := []struct {
		name string
		run  func(size int) error
	}{
		{"bufpool", func(size int) error {
			cfg := DefaultBufPoolConfig()
			cfg.MessageSize = size
			_, err := RunBufPool(cfg)
			return err
		}},
		{"faults", func(size int) error {
			cfg := DefaultFaultStudyConfig(routing.ITBRouting, 8, 3)
			cfg.MessageSize = size
			_, err := RunFaultStudy(cfg)
			return err
		}},
		{"recovery", func(size int) error {
			cfg := DefaultRecoveryStudyConfig(routing.ITBRouting, 8, 3)
			cfg.MessageSize = size
			_, err := RunRecoveryStudy(cfg)
			return err
		}},
	}
	bound := fmt.Sprint(workload.MinFlowBytes)
	for _, st := range studies {
		for _, size := range []int{0, 12} {
			err := st.run(size)
			if err == nil || !strings.Contains(err.Error(), bound) {
				t.Errorf("%s with %d-byte messages: error %v, want one naming the %s-byte floor", st.name, size, err, bound)
			}
		}
	}
}

// TestSweepErrors checks that every sweep study rejects a window that
// is not positive before any cell runs (a zero window would divide the
// accepted traffic by zero), and that the studies taking a routing
// reject a nil one.
func TestSweepErrors(t *testing.T) {
	studies := map[string]func(units.Time) error{
		"throughput":  func(w units.Time) error { _, err := RunThroughput(8, 5, w); return err },
		"scaling":     func(w units.Time) error { _, err := RunScaling([]int{8}, 5, w); return err },
		"sensitivity": func(w units.Time) error { _, err := RunSensitivity(8, 5, w); return err },
	}
	for name, run := range studies {
		for _, w := range []units.Time{0, -units.Microsecond} {
			if err := run(w); err == nil || !strings.Contains(err.Error(), "window") {
				t.Errorf("%s with window %v: error %v, want one naming the window", name, w, err)
			}
		}
	}
	fcfg := DefaultFaultStudyConfig(nil, 8, 3)
	if _, err := RunFaultStudy(fcfg); err == nil {
		t.Error("nil routing accepted by the fault study")
	}
	rcfg := DefaultRecoveryStudyConfig(nil, 8, 3)
	if _, err := RunRecoveryStudy(rcfg); err == nil {
		t.Error("nil routing accepted by the recovery study")
	}
}

func TestSweepWriteTable(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: routing.ITBRouting, loads: []float64{0.2}}, 400*units.Microsecond)
	var sb strings.Builder
	res.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"Throughput sweep", "ITB", "offered", "peak accepted"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestSweepHotspotPattern(t *testing.T) {
	res := runCurve(t, curve{switches: 8, alg: routing.ITBRouting, pattern: workload.HotSpot, hot: 0.5,
		loads: []float64{0.3}}, 400*units.Microsecond)
	if res.Points[0].Delivered == 0 {
		t.Error("hotspot sweep delivered nothing")
	}
}

func TestBufPoolDropRateFallsWithPoolSize(t *testing.T) {
	cfg := DefaultBufPoolConfig()
	cfg.PoolSizes = []int{1, 16}
	cfg.Window = 300 * units.Microsecond
	res, err := RunBufPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, big := res.Points[0], res.Points[1]
	if small.PoolDrops == 0 {
		t.Error("tiny pool never dropped under hotspot overload")
	}
	if big.DropRate >= small.DropRate {
		t.Errorf("drop rate did not fall with pool size: %.3f -> %.3f",
			small.DropRate, big.DropRate)
	}
	if small.Retransmits == 0 {
		t.Error("drops without retransmissions: reliability not engaged")
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "Buffer pool") {
		t.Error("table header missing")
	}
}

func TestITBCountLinearGrowth(t *testing.T) {
	res, err := RunITBCount(3, 64, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Latency <= res.Rows[i-1].Latency {
			t.Errorf("latency not increasing with ITBs: %+v", res.Rows)
		}
		// Each ITB costs on the order of a microsecond.
		per := res.Rows[i].ExtraPerITB
		if per < 500*units.Nanosecond || per > 3*units.Microsecond {
			t.Errorf("per-ITB cost at n=%d is %v, want ~1.3us", res.Rows[i].ITBs, per)
		}
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "in-transit buffer count") {
		t.Error("table header missing")
	}
}

func TestITBCountErrors(t *testing.T) {
	if _, err := RunITBCount(0, 64, 10, nil); err == nil {
		t.Error("zero maxITBs accepted")
	}
}

func TestAblations(t *testing.T) {
	res, err := RunAblations([]int{2048}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Penalty < 0 {
			t.Errorf("%s: ablated variant faster by %v", row.Name, -row.Penalty)
		}
	}
	// Store-and-forward at 2 KB must cost roughly a serialisation
	// half (the ping direction only): clearly more than a dispatch
	// delay.
	if res.Rows[0].Penalty < units.Microsecond {
		t.Errorf("early-recv ablation penalty %v too small", res.Rows[0].Penalty)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "ablation") {
		t.Error("table header missing")
	}
}

// A bad offered load is a configuration error: zero, negative, NaN and
// infinite loads make every closed-loop study return a plain error
// naming the load, before any cluster runs, instead of panicking.
func TestBadLoadIsAnError(t *testing.T) {
	studies := []struct {
		name string
		run  func(load float64) error
	}{
		{"sweep", func(load float64) error {
			c := curve{switches: 8, alg: routing.ITBRouting, loads: []float64{0.2, load}}
			_, err := runCurves([]curve{c}, nil, 5, 400*units.Microsecond, nil, nil)
			return err
		}},
		{"bufpool", func(load float64) error {
			cfg := DefaultBufPoolConfig()
			cfg.PoolSizes = []int{2}
			cfg.Load = load
			_, err := RunBufPool(cfg)
			return err
		}},
		{"faults", func(load float64) error {
			cfg := DefaultFaultStudyConfig(routing.ITBRouting, 4, 5)
			cfg.Campaigns = 1
			cfg.Load = load
			_, err := RunFaultStudy(cfg)
			return err
		}},
	}
	for _, st := range studies {
		for _, load := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s/%v", st.name, load), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("load %v panicked: %v", load, r)
					}
				}()
				err := st.run(load)
				if err == nil {
					t.Fatalf("load %v accepted", load)
				}
				msg := err.Error()
				if !strings.Contains(msg, "got "+fmt.Sprint(load)) {
					t.Errorf("error does not name load %v: %s", load, msg)
				}
				if strings.Contains(msg, "goroutine") || strings.Contains(msg, "panicked") {
					t.Errorf("error carries a panic: %s", msg)
				}
			})
		}
	}
}
