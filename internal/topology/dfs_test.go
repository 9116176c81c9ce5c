package topology

import (
	"testing"
	"testing/quick"
)

func TestDFSOrientationBasics(t *testing.T) {
	tp, err := Generate(DefaultGenConfig(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ud := BuildUpDownDFS(tp)
	// Every switch has a DFS index; indices are a permutation.
	seen := map[int]bool{}
	for _, sw := range tp.Switches() {
		idx, ok := ud.Level[sw]
		if !ok {
			t.Fatalf("switch %d unvisited", sw)
		}
		if seen[idx] {
			t.Fatalf("duplicate DFS index %d", idx)
		}
		seen[idx] = true
	}
	if ud.Level[ud.Root] != 0 {
		t.Errorf("root index = %d", ud.Level[ud.Root])
	}
	// Every switch-switch link oriented toward the smaller index.
	for i := range tp.Links() {
		l := tp.Link(i)
		if !ud.IsSwitchLink(l) {
			continue
		}
		var up, down NodeID
		if ud.DirectionOf(l, l.A) == Up {
			up, down = l.B, l.A
		} else {
			up, down = l.A, l.B
		}
		if ud.Level[up] > ud.Level[down] {
			t.Errorf("link %d oriented toward higher DFS index", l.ID)
		}
	}
}

func TestDFSRootIsHighestDegree(t *testing.T) {
	tp, err := Generate(DefaultGenConfig(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	ud := BuildUpDownDFS(tp)
	// Count each switch's switch-to-switch cables port by port.
	degree := func(sw NodeID) int {
		d := 0
		for _, nb := range tp.Neighbors(sw) {
			if tp.Node(nb.Node).Kind == KindSwitch && !nb.Link.IsLoopback() {
				d++
			}
		}
		return d
	}
	deg := switchDegrees(tp)
	rootDeg := degree(ud.Root)
	for _, sw := range tp.Switches() {
		if deg[sw] != degree(sw) {
			t.Errorf("switchDegrees counts %d cables at switch %d, its ports %d", deg[sw], sw, degree(sw))
		}
		if degree(sw) > rootDeg {
			t.Errorf("switch %d has degree %d above root's %d", sw, degree(sw), rootDeg)
		}
	}
}

func TestDFSFromNonSwitchPanics(t *testing.T) {
	tp := Linear(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildUpDownDFSFrom(tp, tp.Hosts()[0])
}

func TestDFSTreeParentsPrecedeChildren(t *testing.T) {
	tp, err := Generate(DefaultGenConfig(12, 7))
	if err != nil {
		t.Fatal(err)
	}
	ud := BuildUpDownDFS(tp)
	for sw, linkID := range ud.TreeLink {
		l := tp.Link(linkID)
		parent := l.Other(sw)
		if ud.Level[parent] >= ud.Level[sw] {
			t.Errorf("tree parent %d (idx %d) not before child %d (idx %d)",
				parent, ud.Level[parent], sw, ud.Level[sw])
		}
	}
}

// Property: DFS orientations orient every switch link and ignore
// loopbacks, on random topologies.
func TestDFSOrientationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		tp, err := Generate(DefaultGenConfig(n, seed))
		if err != nil {
			return false
		}
		ud := BuildUpDownDFS(tp)
		for i := range tp.Links() {
			l := tp.Link(i)
			isSw := tp.Node(l.A).Kind == KindSwitch && tp.Node(l.B).Kind == KindSwitch && !l.IsLoopback()
			if isSw != ud.IsSwitchLink(l) {
				return false
			}
		}
		return len(ud.Level) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
