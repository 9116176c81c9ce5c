package routing

import (
	"repro/internal/topology"
)

// RootQuality scores an up*/down* orientation: the sum of legal
// shortest-path lengths over all ordered switch pairs (lower is
// better). The root choice matters because a poorly placed root
// lengthens many routes and funnels them through itself.
func RootQuality(t *topology.Topology, ud *topology.UpDown) int {
	g := mustGraph(t, ud)
	tree := newSearchTree(2 * len(g.sws))
	queue := make([]int32, 0, 2*len(g.sws))
	total := 0
	for si := range g.sws {
		// One legal BFS per source covers all destinations.
		g.legalBFS(int32(si), 0, nil, &tree, queue)
		for di := range g.sws {
			if goal := tree.goal[di]; goal >= 0 {
				total += int(tree.dist[goal])
			}
		}
	}
	return total
}

// BestRoot evaluates every switch as the spanning-tree root and
// returns the one whose orientation yields the lowest total up*/down*
// path length, with the orientation itself. Ties break toward the
// lower switch id (determinism). The stock Myrinet mapper elects a
// root heuristically; evaluating candidates exhaustively is what the
// routing studies of the era did to separate root effects from
// algorithm effects.
func BestRoot(t *topology.Topology) (topology.NodeID, *topology.UpDown) {
	var bestUD *topology.UpDown
	var bestRoot topology.NodeID
	bestScore := -1
	for _, sw := range t.Switches() {
		ud := topology.BuildUpDownFrom(t, sw)
		score := RootQuality(t, ud)
		if bestScore < 0 || score < bestScore {
			bestScore = score
			bestRoot = sw
			bestUD = ud
		}
	}
	return bestRoot, bestUD
}

// WorstRoot is the adversarial counterpart of BestRoot, used by tests
// and the root-sensitivity study.
func WorstRoot(t *topology.Topology) (topology.NodeID, *topology.UpDown) {
	var worstUD *topology.UpDown
	var worstRoot topology.NodeID
	worstScore := -1
	for _, sw := range t.Switches() {
		ud := topology.BuildUpDownFrom(t, sw)
		score := RootQuality(t, ud)
		if score > worstScore {
			worstScore = score
			worstRoot = sw
			worstUD = ud
		}
	}
	return worstRoot, worstUD
}
