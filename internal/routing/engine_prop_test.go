package routing

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// The cross-engine property suite: every registered engine must
// deliver the same contract on every topology class at every size —
// all-pairs reachability, hop-by-hop route validity under the engine's
// own orientation, and channel-dependency acyclicity. The cells run
// the struct-of-arrays CompactTable path (the only one that scales to
// 4096 hosts); TestEngineTableAgreesWithCompact ties the classic Table
// path to it at small scale.

// propClasses are the generator families of the engine study.
var propClasses = []string{"irregular", "fattree", "dragonfly"}

// propTopology builds one cell topology. Sizes are nominal host
// counts; each generator rounds to its nearest valid configuration.
func propTopology(tb testing.TB, class string, hosts int, seed int64) *topology.Topology {
	tb.Helper()
	var t *topology.Topology
	var err error
	switch class {
	case "irregular":
		t, err = topology.Generate(topology.DefaultGenConfig(hosts/4, seed))
	case "fattree":
		t, err = topology.FatTree(topology.DefaultFatTreeConfig(hosts))
	case "dragonfly":
		t, err = topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
	default:
		tb.Fatalf("unknown topology class %q", class)
	}
	if err != nil {
		tb.Fatalf("%s/%d: %v", class, hosts, err)
	}
	return t
}

func TestEnginePropertySuite(t *testing.T) {
	sizes := []int{64, 256, 1024}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 4096)
	}
	for _, class := range propClasses {
		for _, size := range sizes {
			topo := propTopology(t, class, size, 1)
			for _, e := range Engines() {
				t.Run(fmt.Sprintf("%s/%d/%s", class, size, e.Name()), func(t *testing.T) {
					ct, err := BuildCompact(e, topo, nil)
					if err != nil {
						t.Fatalf("BuildCompact: %v", err)
					}
					// Validate covers all-pairs reachability, structural
					// decodability, per-hop up*/down* legality with resets,
					// and arrival at the right switch.
					if err := ct.Validate(); err != nil {
						t.Fatalf("Validate: %v", err)
					}
					if err := ct.CheckDeadlockFree(); err != nil {
						t.Fatalf("CheckDeadlockFree: %v", err)
					}
					if ct.EngineName != e.Name() {
						t.Fatalf("table names engine %q", ct.EngineName)
					}
					// Determinism: a second build is byte-identical.
					if size <= 256 {
						again, err := BuildCompact(e, topo, nil)
						if err != nil {
							t.Fatalf("second BuildCompact: %v", err)
						}
						if !bytes.Equal(ct.steps, again.steps) {
							t.Fatalf("compact build is not deterministic")
						}
					}
				})
			}
		}
	}
}

// TestEngineTableAgreesWithCompact pins the classic Table build to the
// struct-of-arrays build: per host pair, the route must use exactly as
// many switch hops and in-transit buffers as the compact path for its
// switch pair (both read the same search with the same goal rule, so
// the paths are the same; TestCompactSwitchPathsMatchTable compares
// them hop by hop). It also checks the Table-side
// contract: every ordered host pair routed, every route valid under
// the engine's orientation, and the engine's deadlock self-check green
// (the classic deadlock.go CDG over materialised routes).
func TestEngineTableAgreesWithCompact(t *testing.T) {
	for _, class := range propClasses {
		topo := propTopology(t, class, 64, 1)
		for _, e := range Engines() {
			t.Run(fmt.Sprintf("%s/%s", class, e.Name()), func(t *testing.T) {
				tbl, err := e.BuildTable(topo, nil)
				if err != nil {
					t.Fatalf("BuildTable: %v", err)
				}
				if tbl.engine != e {
					t.Fatalf("table records engine %v", tbl.engine)
				}
				hosts := topo.Hosts()
				if want := len(hosts) * (len(hosts) - 1); tbl.Len() != want {
					t.Fatalf("%d routes, want %d", tbl.Len(), want)
				}
				ud := e.Orientation(topo)
				ct, err := BuildCompact(e, topo, nil)
				if err != nil {
					t.Fatalf("BuildCompact: %v", err)
				}
				for _, src := range hosts {
					for _, dst := range hosts {
						if src == dst {
							continue
						}
						r, ok := tbl.Lookup(src, dst)
						if !ok {
							t.Fatalf("no route %d->%d", src, dst)
						}
						if err := r.Validate(topo, ud); err != nil {
							t.Fatalf("route %d->%d: %v", src, dst, err)
						}
						srcSw, _ := topo.SwitchOf(src)
						dstSw, _ := topo.SwitchOf(dst)
						hops, itbs := 0, 0
						err := ct.forEachStep(ct.SwitchIndex(srcSw), ct.SwitchIndex(dstSw),
							func(*topology.Link, topology.NodeID) error { hops++; return nil },
							func(_, _ topology.NodeID, _ *topology.Link) error { itbs++; return nil },
							nil)
						if err != nil {
							t.Fatalf("decode %d->%d: %v", srcSw, dstSw, err)
						}
						if r.NumITBs() != itbs {
							t.Fatalf("route %d->%d uses %d ITBs, compact path %d",
								src, dst, r.NumITBs(), itbs)
						}
						if want := hops + 1 + itbs; r.SwitchCrossings() != want {
							t.Fatalf("route %d->%d crosses %d switches, compact path %d",
								src, dst, r.SwitchCrossings(), want)
						}
					}
				}
				if err := CheckDeadlockFree(tbl.Routes()); err != nil {
					t.Fatalf("CheckDeadlockFree: %v", err)
				}
			})
		}
	}
}

// TestEnginePairPropertiesQuick drives testing/quick over random
// switch pairs of each (engine, size) cell: the stored compact path
// must decode, end at its destination switch, and re-encode to
// identical bytes.
func TestEnginePairPropertiesQuick(t *testing.T) {
	for _, size := range []int{16, 64} {
		topo := propTopology(t, "irregular", size, 7)
		for _, e := range Engines() {
			t.Run(fmt.Sprintf("%d/%s", size, e.Name()), func(t *testing.T) {
				ct, err := BuildCompact(e, topo, nil)
				if err != nil {
					t.Fatalf("BuildCompact: %v", err)
				}
				s := ct.NumSwitches()
				prop := func(a, b uint16) bool {
					si, di := int(a)%s, int(b)%s
					steps := ct.PairSteps(si, di)
					out, end, err := reencode(ct, ct.Switch(si), steps)
					if err != nil || end != ct.Switch(di) || !bytes.Equal(out, steps) {
						t.Logf("pair (%d,%d): round trip ends at %d: %v", si, di, end, err)
						return false
					}
					return true
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
