package core

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/units"
)

// TestSweepPairRunsOnce pins that one Studies table runs the
// throughput and latload studies' sweep pair once: running both merges
// exactly the metrics of the throughput study alone, where running the
// pair twice merged every ud. and itb. counter twice.
func TestSweepPairRunsOnce(t *testing.T) {
	snapshot := func(names ...string) []byte {
		t.Helper()
		p := Params{Switches: 8, Seed: 5, Window: 100 * units.Microsecond, Metrics: metrics.NewRegistry()}
		byName := map[string]Study{}
		for _, s := range Studies() {
			byName[s.Name] = s
		}
		for _, n := range names {
			if _, err := byName[n].Run(p); err != nil {
				t.Fatalf("%s: %v", n, err)
			}
		}
		var b bytes.Buffer
		if err := p.Metrics.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	both, alone := snapshot("throughput", "latload"), snapshot("throughput")
	if len(alone) < 100 {
		t.Fatalf("the throughput study merged no metrics: %s", alone)
	}
	if !bytes.Equal(both, alone) {
		t.Error("throughput then latload merged other metrics than throughput alone: the sweep pair ran twice")
	}
}
