package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestRootQualityLinear(t *testing.T) {
	// On a 5-switch chain, the centre switch is the best root: it
	// bounds tree depth at 2. The ends are worst.
	tp := topology.Linear(5, 1)
	sws := tp.Switches()
	centre := RootQuality(tp, topology.BuildUpDownFrom(tp, sws[2]))
	end := RootQuality(tp, topology.BuildUpDownFrom(tp, sws[0]))
	// On a chain, every UD path is minimal regardless of root, so the
	// scores tie; quality differences need cross links.
	if centre != end {
		t.Logf("chain scores: centre %d, end %d", centre, end)
	}
	best, ud := BestRoot(tp)
	if ud == nil {
		t.Fatal("nil orientation")
	}
	if RootQuality(tp, ud) > end {
		t.Errorf("best root %d scored worse than an end", best)
	}
}

func TestBestBeatsWorstOnIrregular(t *testing.T) {
	tp, err := topology.Generate(topology.DefaultGenConfig(16, 13))
	if err != nil {
		t.Fatal(err)
	}
	bRoot, budd := BestRoot(tp)
	wRoot, wudd := WorstRoot(tp)
	b, w := RootQuality(tp, budd), RootQuality(tp, wudd)
	if b > w {
		t.Errorf("best root score %d worse than worst %d", b, w)
	}
	if b == w {
		t.Skip("all roots equivalent on this instance")
	}
	// Route tables built on the best root have shorter averages.
	bTbl, err := (&UpDownEngine{Root: &bRoot}).BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	wTbl, err := (&UpDownEngine{Root: &wRoot}).BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	ba := Analyze(tp, budd, bTbl)
	wa := Analyze(tp, wudd, wTbl)
	if ba.AvgLinkHops > wa.AvgLinkHops {
		t.Errorf("best-root avg hops %.3f above worst-root %.3f", ba.AvgLinkHops, wa.AvgLinkHops)
	}
}

// Property: BestRoot's score lower-bounds every candidate's, and both
// orientations stay deadlock free with both routings.
func TestBestRootProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		tp, err := topology.Generate(topology.DefaultGenConfig(n, seed))
		if err != nil {
			return false
		}
		root, best := BestRoot(tp)
		bestScore := RootQuality(tp, best)
		for _, sw := range tp.Switches() {
			if RootQuality(tp, topology.BuildUpDownFrom(tp, sw)) < bestScore {
				return false
			}
		}
		for _, itb := range []bool{false, true} {
			tbl, err := (&UpDownEngine{ITB: itb, Root: &root}).BuildTable(tp, nil)
			if err != nil {
				return false
			}
			if CheckDeadlockFree(tbl.Routes()) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// The ITB mechanism shrinks the best/worst root gap: with minimal
// routing the root matters much less (its main role is deadlock
// avoidance, not path selection).
func TestITBShrinksRootSensitivity(t *testing.T) {
	tp, err := topology.Generate(topology.DefaultGenConfig(16, 13))
	if err != nil {
		t.Fatal(err)
	}
	bRoot, _ := BestRoot(tp)
	wRoot, _ := WorstRoot(tp)
	gap := func(itb bool) float64 {
		bt, err := (&UpDownEngine{ITB: itb, Root: &bRoot}).BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := (&UpDownEngine{ITB: itb, Root: &wRoot}).BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(tp, wt.Orientation(), wt).AvgLinkHops - Analyze(tp, bt.Orientation(), bt).AvgLinkHops
	}
	udGap := gap(false)
	itbGap := gap(true)
	if itbGap > udGap {
		t.Errorf("ITB root-sensitivity gap %.3f exceeds up*/down* %.3f", itbGap, udGap)
	}
	if itbGap != 0 {
		t.Errorf("ITB routes should be minimal under any root; gap = %.3f", itbGap)
	}
}
