// Package tree implements unrooted binary phylogenies and the traversal
// machinery required by likelihood computation and CLV management.
//
// The central concept is the *directed edge*: for an unrooted binary tree
// with n leaves there are 2n-3 branches and 4n-6 directed edges. A
// conditional likelihood vector (CLV) is associated with each directed edge
// (u→v): it summarizes the subtree on u's side of the branch, as seen from
// v. Directed edges whose tail is a leaf are "free" (their CLV is the tip
// encoding and occupies no slot); the remaining 3(n-2) directed edges are the
// CLVs that EPA-NG keeps in memory, and the objects the Active Management of
// CLVs (internal/core) slots in and out.
package tree

import (
	"fmt"
	"math"
	"sync"
)

// Node is a vertex of an unrooted tree: degree 1 (leaf) or 3 (inner).
type Node struct {
	ID    int    // leaves are 0..NumLeaves-1, inner nodes follow
	Name  string // non-empty for leaves
	Edges []*Edge
}

// IsLeaf reports whether the node has degree 1.
func (n *Node) IsLeaf() bool { return len(n.Edges) == 1 }

// Edge is an undirected branch with a length.
type Edge struct {
	ID     int
	Length float64
	nodes  [2]*Node
}

// Nodes returns the two endpoints of the edge.
func (e *Edge) Nodes() (a, b *Node) { return e.nodes[0], e.nodes[1] }

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint, which is a programming error.
func (e *Edge) Other(n *Node) *Node {
	switch n {
	case e.nodes[0]:
		return e.nodes[1]
	case e.nodes[1]:
		return e.nodes[0]
	}
	panic("tree: Other called with non-incident node")
}

// side returns 0 if n is nodes[0], 1 if nodes[1].
func (e *Edge) side(n *Node) int {
	switch n {
	case e.nodes[0]:
		return 0
	case e.nodes[1]:
		return 1
	}
	panic("tree: side called with non-incident node")
}

// Dir identifies a directed edge: the undirected edge plus the tail side.
// Dir values are dense integers in [0, 2*NumBranches).
type Dir int32

// NoDir is the sentinel for "no directed edge".
const NoDir Dir = -1

// Tree is an unrooted binary phylogeny.
type Tree struct {
	Nodes  []*Node // leaves first, then inner nodes
	Edges  []*Edge
	leaves int

	// clvIndex maps a Dir to a dense index in [0, 3(n-2)) when the tail is an
	// inner node, or -1 when the tail is a leaf.
	clvIndex []int32
	// dirOf is the inverse of clvIndex.
	dirOf []Dir

	suOnce sync.Once
	su     []int32 // cached Sethi–Ullman slot requirements per Dir

	sweepOnce sync.Once
	sweep     *SweepOrder // cached canonical branch sweep
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return t.leaves }

// NumBranches returns the number of undirected branches (2n-3).
func (t *Tree) NumBranches() int { return len(t.Edges) }

// NumInnerCLVs returns the number of slot-managed CLVs, 3(n-2).
func (t *Tree) NumInnerCLVs() int { return len(t.dirOf) }

// Leaves returns the leaf nodes (ids 0..NumLeaves-1).
func (t *Tree) Leaves() []*Node { return t.Nodes[:t.leaves] }

// DirOf returns the directed edge for undirected edge e with tail node tail.
func (t *Tree) DirOf(e *Edge, tail *Node) Dir {
	return Dir(2*e.ID + e.side(tail))
}

// EdgeOf returns the undirected edge underlying d.
func (t *Tree) EdgeOf(d Dir) *Edge { return t.Edges[int(d)/2] }

// Tail returns the node at the tail (origin) of d: the CLV at d summarizes
// the subtree containing Tail(d).
func (t *Tree) Tail(d Dir) *Node { return t.Edges[int(d)/2].nodes[int(d)%2] }

// Reverse returns the directed edge with tail and head swapped.
func (t *Tree) Reverse(d Dir) Dir { return d ^ 1 }

// CLVIndex returns the dense inner-CLV index of d, or -1 if Tail(d) is a
// leaf (tip CLVs are not slot-managed).
func (t *Tree) CLVIndex(d Dir) int { return int(t.clvIndex[d]) }

// DirOfCLV returns the directed edge for a dense inner-CLV index.
func (t *Tree) DirOfCLV(idx int) Dir { return t.dirOf[idx] }

// Children returns the two directed edges feeding the CLV at d: for
// d = (u→v) with u inner, these are (w1→u) and (w2→u) where w1, w2 are u's
// other neighbors. It panics if Tail(d) is a leaf.
func (t *Tree) Children(d Dir) (a, b Dir) {
	u := t.Tail(d)
	if u.IsLeaf() {
		panic("tree: Children of a leaf-tailed directed edge")
	}
	parent := t.EdgeOf(d)
	found := 0
	var out [2]Dir
	for _, e := range u.Edges {
		if e == parent {
			continue
		}
		out[found] = t.DirOf(e, e.Other(u))
		found++
	}
	if found != 2 {
		panic(fmt.Sprintf("tree: inner node %d does not have exactly 3 edges", u.ID))
	}
	return out[0], out[1]
}

// LeafByName returns the leaf with the given name, or nil.
func (t *Tree) LeafByName(name string) *Node {
	for _, n := range t.Leaves() {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// TotalBranchLength returns the sum of all branch lengths.
func (t *Tree) TotalBranchLength() float64 {
	sum := 0.0
	for _, e := range t.Edges {
		sum += e.Length
	}
	return sum
}

// index assigns node IDs (leaves first), edge IDs, and the dense CLV
// indexing. Builders must call it exactly once after wiring up the topology.
func (t *Tree) index() error {
	var leaves, inner []*Node
	for _, n := range t.Nodes {
		switch len(n.Edges) {
		case 1:
			if n.Name == "" {
				return fmt.Errorf("tree: leaf without a name")
			}
			leaves = append(leaves, n)
		case 3:
			inner = append(inner, n)
		default:
			return fmt.Errorf("tree: node %q has degree %d, want 1 or 3", n.Name, len(n.Edges))
		}
	}
	if len(leaves) < 3 {
		return fmt.Errorf("tree: need at least 3 leaves, got %d", len(leaves))
	}
	if len(inner) != len(leaves)-2 {
		return fmt.Errorf("tree: %d inner nodes for %d leaves, want %d", len(inner), len(leaves), len(leaves)-2)
	}
	t.leaves = len(leaves)
	t.Nodes = append(leaves, inner...)
	for i, n := range t.Nodes {
		n.ID = i
	}
	if want := 2*len(leaves) - 3; len(t.Edges) != want {
		return fmt.Errorf("tree: %d edges for %d leaves, want %d", len(t.Edges), len(leaves), want)
	}
	for i, e := range t.Edges {
		e.ID = i
		if e.Length < 0 || math.IsNaN(e.Length) {
			return fmt.Errorf("tree: edge %d has invalid length %g", i, e.Length)
		}
	}
	t.clvIndex = make([]int32, 2*len(t.Edges))
	t.dirOf = t.dirOf[:0]
	for d := range t.clvIndex {
		if t.Tail(Dir(d)).IsLeaf() {
			t.clvIndex[d] = -1
		} else {
			t.clvIndex[d] = int32(len(t.dirOf))
			t.dirOf = append(t.dirOf, Dir(d))
		}
	}
	return nil
}

// connect adds an edge of the given length between a and b.
func connect(a, b *Node, length float64) *Edge {
	e := &Edge{Length: length, nodes: [2]*Node{a, b}}
	a.Edges = append(a.Edges, e)
	b.Edges = append(b.Edges, e)
	return e
}

// SubtreeLeafCounts returns, indexed by Dir, the number of leaves in the
// subtree behind each directed edge. This is the recomputation-cost
// approximation used by the default CLV replacement strategy.
func (t *Tree) SubtreeLeafCounts() []int {
	counts := make([]int, 2*len(t.Edges))
	for i := range counts {
		counts[i] = -1
	}
	// Iterative DFS with an explicit stack (deep caterpillars again).
	type frame struct {
		d        Dir
		expanded bool
	}
	for start := 0; start < 2*len(t.Edges); start++ {
		if counts[start] >= 0 {
			continue
		}
		stack := []frame{{d: Dir(start)}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if counts[f.d] >= 0 {
				continue
			}
			if t.Tail(f.d).IsLeaf() {
				counts[f.d] = 1
				continue
			}
			a, b := t.Children(f.d)
			if f.expanded {
				counts[f.d] = counts[a] + counts[b]
				continue
			}
			stack = append(stack, frame{d: f.d, expanded: true})
			if counts[a] < 0 {
				stack = append(stack, frame{d: a})
			}
			if counts[b] < 0 {
				stack = append(stack, frame{d: b})
			}
		}
	}
	return counts
}

// SlotRequirements returns the cached Sethi–Ullman slot requirement per
// directed edge (see sethiUllman). The returned slice is shared; callers
// must not modify it.
func (t *Tree) SlotRequirements() []int32 {
	t.suOnce.Do(func() { t.su = t.sethiUllman() })
	return t.su
}

// MinSlots returns the exact minimum number of CLV slots that suffice to
// compute the CLV at any single directed edge of the tree by the Felsenstein
// pruning algorithm, assuming tip CLVs are free and intermediate CLVs may be
// discarded as soon as their parent is computed. This is the Sethi–Ullman
// register count adapted to free leaves; it is bounded by ⌈log2(n)⌉+2
// (the paper's `log n` approach) and is typically much smaller for
// unbalanced trees.
func (t *Tree) MinSlots() int {
	su := t.SlotRequirements()
	max := 0
	for _, v := range su {
		if int(v) > max {
			max = int(v)
		}
	}
	return max
}

// sethiUllman computes, per directed edge, the simultaneous slot requirement
// for evaluating that CLV: for children requirements s1 ≥ s2 with inner-ness
// indicators i1, i2 ∈ {0,1}:
//
//	slots(d) = max(s1, s2+i1, i1+i2+1)
//
// (evaluate the more demanding child first; while evaluating the second, the
// first child's result occupies a slot if it is inner; finally both inner
// children plus the result are resident together).
func (t *Tree) sethiUllman() []int32 {
	su := make([]int32, 2*len(t.Edges))
	for i := range su {
		su[i] = -1
	}
	type frame struct {
		d        Dir
		expanded bool
	}
	for start := 0; start < 2*len(t.Edges); start++ {
		if su[start] >= 0 {
			continue
		}
		stack := []frame{{d: Dir(start)}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if su[f.d] >= 0 {
				continue
			}
			if t.Tail(f.d).IsLeaf() {
				su[f.d] = 0
				continue
			}
			a, b := t.Children(f.d)
			if f.expanded {
				s1, s2 := su[a], su[b]
				i1, i2 := int32(1), int32(1)
				if t.Tail(a).IsLeaf() {
					i1 = 0
				}
				if t.Tail(b).IsLeaf() {
					i2 = 0
				}
				if s1 < s2 {
					s1, s2 = s2, s1
					i1, i2 = i2, i1
				}
				v := s1
				if s2+i1 > v {
					v = s2 + i1
				}
				if i1+i2+1 > v {
					v = i1 + i2 + 1
				}
				su[f.d] = v
				continue
			}
			stack = append(stack, frame{d: f.d, expanded: true})
			if su[a] < 0 {
				stack = append(stack, frame{d: a})
			}
			if su[b] < 0 {
				stack = append(stack, frame{d: b})
			}
		}
	}
	return su
}

// LogNBound returns ⌈log2(n)⌉ + 2, the worst-case slot requirement proven in
// the paper's reference [5] for a fully balanced tree with n leaves.
func LogNBound(n int) int {
	return int(math.Ceil(math.Log2(float64(n)))) + 2
}

// SweepOrder is the canonical branch sweep: the preorder of the tree rooted at
// leaf 0's edge that descends into the lighter (fewer leaves) child subtree
// first. Every edge's subtree — the edge itself and everything beyond it,
// seen from leaf 0 — occupies the contiguous positions [Pos, End], which is
// what lets the slot manager answer "when is this CLV next needed?" with a
// range lookup. Visiting the lighter subtree first shortens the span over
// which the CLV summarizing it must be held for its heavier sibling.
// All slices except Edges are indexed by edge ID; callers must not modify
// them.
type SweepOrder struct {
	Edges []*Edge // every edge once, in sweep order
	Pos   []int32 // position of the edge in Edges
	End   []int32 // position of the last edge of the edge's subtree
	Up    []Dir   // the directed edge whose tail is the edge's far (away from leaf 0) node
}

// SweepOrder returns the tree's cached canonical branch sweep.
func (t *Tree) SweepOrder() *SweepOrder {
	t.sweepOnce.Do(func() { t.sweep = t.buildSweepOrder() })
	return t.sweep
}

func (t *Tree) buildSweepOrder() *SweepOrder {
	nb := len(t.Edges)
	so := &SweepOrder{
		Edges: make([]*Edge, 0, nb),
		Pos:   make([]int32, nb),
		End:   make([]int32, nb),
		Up:    make([]Dir, nb),
	}
	leaves := t.SubtreeLeafCounts()
	start := t.Nodes[0].Edges[0]
	// Explicit stack: a caterpillar is as deep as it has leaves.
	stack := []Dir{t.DirOf(start, start.Other(t.Nodes[0]))}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := int(d) / 2
		pos := int32(len(so.Edges))
		so.Edges = append(so.Edges, t.Edges[id])
		so.Pos[id] = pos
		so.End[id] = pos + int32(2*leaves[d]-2) // a subtree with L leaves has 2L-1 edges
		so.Up[id] = d
		if t.Tail(d).IsLeaf() {
			continue
		}
		light, heavy := t.Children(d)
		if leaves[heavy] < leaves[light] {
			light, heavy = heavy, light
		}
		stack = append(stack, heavy, light)
	}
	return so
}

// BranchOrderDFS returns all undirected edges in the canonical sweep order
// (see SweepOrder). Consecutive edges in this order share subtrees, which
// maximizes CLV slot reuse during branch-block precomputation.
func (t *Tree) BranchOrderDFS() []*Edge {
	return append([]*Edge(nil), t.SweepOrder().Edges...)
}
