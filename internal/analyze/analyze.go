// Package analyze post-processes placement results (the gappa-equivalent
// layer): expected distance between placement locations (EDPL, the standard
// placement-uncertainty measure), per-edge placement mass, result summaries,
// and — for synthesized datasets with known query origins — placement
// accuracy as the node distance of the best placement.
package analyze

import (
	"fmt"
	"math"
	"sort"

	"phylomem/internal/jplace"
	"phylomem/internal/tree"
)

// PathLengths returns, for a start node, the branch-length distance to every
// node (trees have unique paths, so one traversal suffices).
func PathLengths(tr *tree.Tree, from *tree.Node) []float64 {
	dist := make([]float64, len(tr.Nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[from.ID] = 0
	stack := []*tree.Node{from}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range u.Edges {
			v := e.Other(u)
			if nd := dist[u.ID] + e.Length; nd < dist[v.ID] {
				dist[v.ID] = nd
				stack = append(stack, v)
			}
		}
	}
	return dist
}

// NodeDistances returns, for a start node, the topological (edge-count)
// distance to every node.
func NodeDistances(tr *tree.Tree, from *tree.Node) []int {
	dist := make([]int, len(tr.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[from.ID] = 0
	queue := []*tree.Node{from}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range u.Edges {
			v := e.Other(u)
			if dist[v.ID] < 0 {
				dist[v.ID] = dist[u.ID] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// pointDistance returns the path length between two placement points, each
// described by an edge and the distal length from the edge's first node.
func pointDistance(tr *tree.Tree, ea int, xa float64, eb int, xb float64, nodeDist map[int][]float64) float64 {
	if ea == eb {
		return math.Abs(xa - xb)
	}
	edgeA, edgeB := tr.Edges[ea], tr.Edges[eb]
	a0, a1 := edgeA.Nodes()
	b0, b1 := edgeB.Nodes()
	dists := func(n *tree.Node) []float64 {
		if d, ok := nodeDist[n.ID]; ok {
			return d
		}
		d := PathLengths(tr, n)
		nodeDist[n.ID] = d
		return d
	}
	da0 := dists(a0)
	// Distances from the two endpoints of edgeA to both endpoints of edgeB,
	// then attach the within-edge offsets. The shortest combination is the
	// tree path.
	best := math.Inf(1)
	for _, ca := range []struct {
		off  float64
		node *tree.Node
	}{{xa, a0}, {edgeA.Length - xa, a1}} {
		var d []float64
		if ca.node == a0 {
			d = da0
		} else {
			d = dists(a1)
		}
		for _, cb := range []struct {
			off  float64
			node *tree.Node
		}{{xb, b0}, {edgeB.Length - xb, b1}} {
			if v := ca.off + d[cb.node.ID] + cb.off; v < best {
				best = v
			}
		}
	}
	return best
}

// ValidateEdges checks that every placement's edge number indexes a branch
// of tr, so the distance-based analyses (EDPL, accuracy) can index
// tr.Edges without panicking on a jplace file written against a different
// tree. Returns a descriptive error naming the first offending query.
func ValidateEdges(tr *tree.Tree, queries []jplace.Placements) error {
	nb := tr.NumBranches()
	for _, q := range queries {
		for _, p := range q.Placements {
			if p.EdgeNum < 0 || p.EdgeNum >= nb {
				return fmt.Errorf("analyze: query %q places on edge %d, tree has %d branches (wrong tree for this jplace file?)",
					q.Name, p.EdgeNum, nb)
			}
		}
	}
	return nil
}

// EDPL computes the expected distance between placement locations of one
// query: Σ_i Σ_j lwr_i · lwr_j · dist(p_i, p_j), normalized by the total
// reported likelihood weight. Zero means the placement mass is concentrated
// on a single point; large values flag uncertain placements.
func EDPL(tr *tree.Tree, q jplace.Placements) float64 {
	if len(q.Placements) <= 1 {
		return 0
	}
	cache := make(map[int][]float64)
	total := 0.0
	for _, p := range q.Placements {
		total += p.LikeWeightRatio
	}
	if total <= 0 {
		return 0
	}
	sum := 0.0
	for i, a := range q.Placements {
		for j := i + 1; j < len(q.Placements); j++ {
			b := q.Placements[j]
			d := pointDistance(tr, a.EdgeNum, a.DistalLength, b.EdgeNum, b.DistalLength, cache)
			sum += 2 * a.LikeWeightRatio * b.LikeWeightRatio * d
		}
	}
	return sum / (total * total)
}

// PlacementMass accumulates, per edge, the likelihood weight placed on it
// across all queries — the data behind gappa's "heat tree" visualization.
func PlacementMass(tr *tree.Tree, queries []jplace.Placements) []float64 {
	mass := make([]float64, tr.NumBranches())
	for _, q := range queries {
		for _, p := range q.Placements {
			if p.EdgeNum >= 0 && p.EdgeNum < len(mass) {
				mass[p.EdgeNum] += p.LikeWeightRatio
			}
		}
	}
	return mass
}

// Summary aggregates a result set.
type Summary struct {
	Queries        int
	MeanBestLWR    float64
	MedianBestLWR  float64
	MeanEDPL       float64
	MeanCandidates float64
	// MassTopEdges lists the edges carrying the most placement mass.
	MassTopEdges []EdgeMass
}

// EdgeMass is one edge's accumulated placement weight.
type EdgeMass struct {
	Edge int
	Mass float64
}

// Summarize computes the standard result summary.
func Summarize(tr *tree.Tree, queries []jplace.Placements) Summary {
	s := Summary{Queries: len(queries)}
	if len(queries) == 0 {
		return s
	}
	best := make([]float64, 0, len(queries))
	for _, q := range queries {
		if len(q.Placements) == 0 {
			continue
		}
		best = append(best, q.Placements[0].LikeWeightRatio)
		s.MeanBestLWR += q.Placements[0].LikeWeightRatio
		s.MeanEDPL += EDPL(tr, q)
		s.MeanCandidates += float64(len(q.Placements))
	}
	n := float64(len(best))
	if n > 0 {
		s.MeanBestLWR /= n
		s.MeanEDPL /= n
		s.MeanCandidates /= n
		sort.Float64s(best)
		s.MedianBestLWR = best[len(best)/2]
	}
	mass := PlacementMass(tr, queries)
	var tops []EdgeMass
	for e, m := range mass {
		if m > 0 {
			tops = append(tops, EdgeMass{Edge: e, Mass: m})
		}
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Mass != tops[j].Mass {
			return tops[i].Mass > tops[j].Mass
		}
		return tops[i].Edge < tops[j].Edge
	})
	if len(tops) > 10 {
		tops = tops[:10]
	}
	s.MassTopEdges = tops
	return s
}

// AccuracyReport measures placement accuracy against known query origins:
// the node distance between the best placement edge and the true origin
// node, in topological steps (0 = an edge incident to the origin). This is
// the best-edge ND, not the LWR-weighted expected node distance (eND) of
// PEWO's accuracy procedure.
type AccuracyReport struct {
	Queries      int
	MeanNodeDist float64
	// Histogram[d] counts queries placed at node distance d (capped at 8+).
	Histogram [9]int
}

// Accuracy evaluates best placements against the origins recorded by the
// workload simulator. origins[i] corresponds to queries[i].
func Accuracy(tr *tree.Tree, queries []jplace.Placements, origins []*tree.Node) (AccuracyReport, error) {
	var rep AccuracyReport
	if len(queries) != len(origins) {
		return rep, fmt.Errorf("analyze: %d results for %d origins", len(queries), len(origins))
	}
	if err := ValidateEdges(tr, queries); err != nil {
		return rep, err
	}
	distCache := make(map[int][]int)
	for i, q := range queries {
		if len(q.Placements) == 0 {
			continue
		}
		origin := origins[i]
		nd, ok := distCache[origin.ID]
		if !ok {
			nd = NodeDistances(tr, origin)
			distCache[origin.ID] = nd
		}
		e := tr.Edges[q.Placements[0].EdgeNum]
		a, b := e.Nodes()
		d := nd[a.ID]
		if nd[b.ID] < d {
			d = nd[b.ID]
		}
		rep.Queries++
		rep.MeanNodeDist += float64(d)
		if d > 8 {
			d = 8
		}
		rep.Histogram[d]++
	}
	if rep.Queries > 0 {
		rep.MeanNodeDist /= float64(rep.Queries)
	}
	return rep, nil
}
