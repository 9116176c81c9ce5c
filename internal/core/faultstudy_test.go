package core

import (
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/units"
)

// smallFaultStudy is a reduced study for tests: fewer campaigns, a
// shorter horizon and lighter load than the itbsim default.
func smallFaultStudy(alg *routing.UpDownEngine) FaultStudyConfig {
	cfg := DefaultFaultStudyConfig(alg, 8, 3)
	cfg.Campaigns = 3
	cfg.FaultEvents = 4
	cfg.Horizon = 500 * units.Microsecond
	cfg.MessageSize = 256
	return cfg
}

// TestFaultStudyDeterministic extends the determinism suite to fault
// campaigns: the full rendered fault report — baseline plus every
// campaign, including retransmit counts and latency degradation — must
// be byte-identical at workers=1 and workers=4. Fault injection runs
// as ordinary simulation events from pre-materialised timelines, so it
// must not cost any reproducibility.
func TestFaultStudyDeterministic(t *testing.T) {
	assertDeterministic(t, func() (string, error) {
		res, err := RunFaultStudy(smallFaultStudy(routing.ITBRouting))
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		res.WriteTable(&sb)
		return sb.String(), nil
	})
}

// TestFaultStudyAccounting checks the report's bookkeeping on both
// routing algorithms: the baseline is fault-free and loses nothing,
// campaigns account for every sent message, and nothing is ever
// delivered twice.
func TestFaultStudyAccounting(t *testing.T) {
	for _, alg := range []*routing.UpDownEngine{routing.UpDownRouting, routing.ITBRouting} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := RunFaultStudy(smallFaultStudy(alg))
			if err != nil {
				t.Fatal(err)
			}
			// The baseline may retransmit (tight buffer pools drop under
			// contention even fault-free) but must lose nothing.
			b := res.Baseline
			if b.Sent == 0 || b.Delivered != b.Sent || b.Failed != 0 ||
				b.Duplicated != 0 || b.PeersDead != 0 || b.FaultKilled != 0 {
				t.Errorf("baseline lost traffic without faults: %+v", b)
			}
			if len(res.Campaigns) != 3 {
				t.Fatalf("got %d campaigns, want 3", len(res.Campaigns))
			}
			for _, c := range res.Campaigns {
				if c.Duplicated != 0 {
					t.Errorf("campaign %s: %d duplicated deliveries", c.Name, c.Duplicated)
				}
				// Conservation: every sent message is delivered or
				// reported failed; the overlap (delivered but the acks
				// died before the verdict) is counted in both.
				if c.Delivered+c.Failed-c.Overlap != c.Sent {
					t.Errorf("campaign %s: delivered %d + failed %d - overlap %d != sent %d",
						c.Name, c.Delivered, c.Failed, c.Overlap, c.Sent)
				}
				if c.Events == 0 {
					t.Errorf("campaign %s: generated no events", c.Name)
				}
			}
		})
	}
}

// TestFaultStudyRecoveryProtocol compares the same campaigns with the
// self-healing subsystem attached and without it. There is no oracle
// any more, so the test does not demand that recovery deliver more —
// detection costs real simulated time — but it demands that both
// variants stay individually conservative, that the protocol actually
// ran (epochs published, suspicions raised), and that its detection
// and convergence latencies are finite, positive, measured quantities.
func TestFaultStudyRecoveryProtocol(t *testing.T) {
	with := smallFaultStudy(routing.ITBRouting)
	without := with
	without.Recovery = nil
	rw, err := RunFaultStudy(with)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RunFaultStudy(without)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []FaultReport{rw, ro} {
		for _, c := range rep.Campaigns {
			if c.Duplicated != 0 {
				t.Errorf("campaign %s: %d duplicates", c.Name, c.Duplicated)
			}
			if c.Delivered+c.Failed-c.Overlap != c.Sent {
				t.Errorf("campaign %s breaks conservation: %+v", c.Name, c)
			}
		}
	}
	var epochs, suspects uint64
	for _, c := range rw.Campaigns {
		epochs += c.EpochsPublished
		suspects += c.Suspects
		if c.Confirms > 0 {
			if c.DetectionAvg <= 0 || c.DetectionAvg > 4*with.Horizon {
				t.Errorf("campaign %s: detection latency %v not a finite in-window measurement", c.Name, c.DetectionAvg)
			}
			if c.ConvergenceAvg <= 0 {
				t.Errorf("campaign %s: confirmations without a convergence sample", c.Name)
			}
		}
	}
	if epochs == 0 {
		t.Error("recovery-enabled study never published an epoch")
	}
	if suspects == 0 {
		t.Error("recovery-enabled study never suspected a host")
	}
	for _, c := range ro.Campaigns {
		if c.EpochsPublished != 0 || c.Suspects != 0 {
			t.Errorf("campaign %s without recovery reports protocol activity: %+v", c.Name, c)
		}
	}
}
