package routing

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topology"
)

// Engine is a pluggable route-computation strategy. The paper's
// mechanism — minimal paths legalised with in-transit buffers over the
// stock BFS up*/down* orientation — is one engine among several; the
// interface lets the engine-comparison study swap the whole strategy
// (orientation, search, deadlock argument) per topology class while
// the simulation stack above stays unchanged.
//
// Every engine must deliver the same contract: on a connected
// topology, BuildTable routes every ordered live host pair and the
// resulting route set passes CheckDeadlockFree. An engine supplies only
// its orientation, its lane count and its search; the Table builds and
// CertifyEngine, which checks and summarises the same paths for the
// large-topology engines study without storing them, are written once.
type Engine interface {
	// Name is the stable identifier used on the itbsim command line
	// and in study output.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Orientation returns the acyclic link orientation the engine's
	// deadlock-freedom argument rests on for this topology.
	Orientation(t *topology.Topology) *topology.UpDown
	// BuildTable computes host-pair routes, omitting pairs with dead
	// endpoints and pairs unreachable under a non-nil exclusion set.
	BuildTable(t *topology.Topology, avoid *Avoid) (*Table, error)
	// Lanes declares how many virtual-channel lanes per link direction
	// the engine's routes require of the fabric. Engines whose routes
	// never select a lane declare 1 (the faithful Myrinet
	// configuration); the vc engines declare their lane count so the
	// cluster builder can size the fabric to the tables it loads.
	Lanes() int
	// search is the engine's per-source search and goal rule.
	search() search
}

// Engines returns the registered engines in stable (alphabetical by
// name) order: the reference up*/down*+ITB engine and the two
// alternative strategies of the comparison study.
func Engines() []Engine {
	es := []Engine{
		ITBRouting,
		LayeredEngine{},
		MinimalEscapeEngine{},
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Name() < es[j].Name() })
	return es
}

// EngineNames returns the registered engine names in stable order.
func EngineNames() []string {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.Name())
	}
	return names
}

// vcEngines lists the virtual-channel engines resolvable by name.
// They are deliberately NOT part of Engines(): the default study
// grids iterate the registry, and the vc design points belong to the
// dedicated VC ablation (core.RunVCStudy), not to every registry
// sweep. Name resolution uses the two-lane instances; the ablation
// constructs other lane counts directly.
func vcEngines() []Engine {
	return []Engine{
		VCEscapeEngine{NumLanes: 2},
		VCEscapeEngine{NumLanes: 2, ITBRepair: true},
	}
}

// EngineByName resolves a registered engine, or one of the named
// virtual-channel engines ("vc-escape", "vc-itb").
func EngineByName(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.Name() == name {
			return e, true
		}
	}
	for _, e := range vcEngines() {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// EngineList renders "name — description" lines for CLI help and the
// error path that lists valid engines, covering both the registry and
// the named virtual-channel engines.
func EngineList() string {
	var b strings.Builder
	for _, e := range Engines() {
		fmt.Fprintf(&b, "  %-15s %s\n", e.Name(), e.Description())
	}
	for _, e := range vcEngines() {
		fmt.Fprintf(&b, "  %-15s %s\n", e.Name(), e.Description())
	}
	return b.String()
}

// engineCheckTopology is the shared precondition of every engine: a
// connected topology with at least one switch and every host cabled.
// BuildUpDown and its DFS variant panic on disconnected inputs, so the
// engines turn that into an error callers can report (the itbsim
// error path depends on this). A topology with nodes that passes
// Validate has a switch, since every host is cabled to one.
func engineCheckTopology(name string, t *topology.Topology) error {
	if t == nil || t.NumNodes() == 0 {
		return fmt.Errorf("routing: engine %q: topology has no switches", name)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("routing: engine %q cannot route this topology: %w", name, err)
	}
	return nil
}

// pathFunc computes the switch path for one switch pair, as
// engineGraph.path does. Besides the traversals it returns the
// in-transit reset positions (indices into the traversal before which
// an ejection/re-injection happens) and, for multi-lane searches, the
// virtual-channel lane of every traversal (nil means everything rides
// lane 0).
type pathFunc func(srcSw, dstSw topology.NodeID) ([]Traversal, []int, []uint8, error)

// buildTable is the body of every engine's BuildTable: a table over a
// new switch graph of e.Orientation(t), with every live pair resolved.
// With a nil avoid every pair must route; with an exclusion set, pairs
// whose endpoint host is dead (or cabled through a dead link) or that
// have no surviving path are omitted. Its rebuilds (Table.Rebuild and
// Table.RebuildLazy) share its engine and graph.
func buildTable(e Engine, t *topology.Topology, avoid *Avoid) (*Table, error) {
	if err := engineCheckTopology(e.Name(), t); err != nil {
		return nil, err
	}
	g, err := newEngineGraph(t, e.Orientation(t))
	if err != nil {
		return nil, err
	}
	tbl := newTable(g, e, avoid, nil)
	if err := tbl.fill(avoid == nil); err != nil {
		return nil, fmt.Errorf("routing: engine %q: %w", e.Name(), err)
	}
	return tbl, nil
}
