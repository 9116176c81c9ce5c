package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gm"
	"repro/internal/units"
)

// The benchmark assembles the testbed arms itself; they must be the
// arms core.RunFig7 and core.RunFig8 measure, to the picosecond.
func TestPingArmsReproduceFigures(t *testing.T) {
	const iters = 100
	f7, err := core.RunFig7(core.Fig7Config{Sizes: gm.DefaultAllsizeSizes(), Iterations: iters, Warmup: pingWarmup})
	if err != nil {
		t.Fatal(err)
	}
	f8, err := core.RunFig8(core.Fig8Config{Sizes: gm.DefaultAllsizeSizes(), Iterations: iters, Warmup: pingWarmup})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]units.Time{}
	for _, row := range f7.Rows {
		want["fig7.original"] = append(want["fig7.original"], row.Original)
		want["fig7.itb"] = append(want["fig7.itb"], row.Modified)
	}
	for _, row := range f8.Rows {
		want["fig8.ud"] = append(want["fig8.ud"], row.UD)
		want["fig8.ud-itb"] = append(want["fig8.ud-itb"], row.UDITB)
	}
	for _, arm := range pingArms {
		r := &rep{tally: map[string]uint64{}}
		c, err := newPingCell(arm, &r.spans, iters)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.run(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.errs) > 0 {
			t.Errorf("%s: %v", arm.name, r.errs)
		}
		if len(rows) != len(want[arm.name]) {
			t.Fatalf("%s: %d rows, want %d", arm.name, len(rows), len(want[arm.name]))
		}
		for i, row := range rows {
			if row.HalfRoundTrip != want[arm.name][i] {
				t.Errorf("%s size %d: half round trip %v, figure has %v", arm.name, row.Size, row.HalfRoundTrip, want[arm.name][i])
			}
		}
	}
}
