package core

import (
	"math"

	"phylomem/internal/tree"
)

// noNeed is the next-need position of a CLV the declared sweep never needs
// again. It compares above every real position, so such CLVs are evicted
// first, and with no sweep declared every CLV carries it.
const noNeed = int32(math.MaxInt32)

// needsPerCLV is the number of need positions kept per CLV: its own branch
// plus one per consumer on the far side (see BeginSweep). The budget planner
// reserves this index (memacct.SweepIndexBytes).
const needsPerCLV = 3

// sweepState is the manager's knowledge of the caller's declared branch
// sweep. The placement engine visits branches in (a subsequence of) the
// tree's canonical sweep order and knows the whole list before it starts, so
// the replacement decision need not guess the future from cost and recency:
// for every CLV the positions at which the sweep will need it are known.
type sweepState struct {
	order *tree.SweepOrder

	// need holds needsPerCLV ascending sweep positions per CLV index (padded
	// with noNeed), rebuilt by BeginSweep. nextTarget[p] is the first target
	// position at or after p; it is only scratch for that rebuild, kept to
	// make BeginSweep allocation-free.
	need       []int32
	nextTarget []int32

	declared bool  // between BeginSweep and EndSweep
	cur      int32 // position of the branch being acquired
}

func newSweepState(tr *tree.Tree) sweepState {
	return sweepState{
		order:      tr.SweepOrder(),
		need:       make([]int32, needsPerCLV*tr.NumInnerCLVs()),
		nextTarget: make([]int32, tr.NumBranches()+1),
	}
}

// BeginSweep declares the branches the caller is about to acquire, normally
// in canonical sweep order (tree.SweepOrder). Until EndSweep, eviction keeps
// the CLVs the sweep needs soonest and hands the strategy only those tied for
// the farthest next need; the declaration never affects which values are
// computed, only which are recomputed. Acquiring branches outside the
// declared list, or out of order, stays correct — the prediction is just
// wrong for them.
//
// A CLV is needed at its own branch's position if that branch is a target,
// and at the first target inside the subtree range of each branch whose
// far-side CLV is computed from it: for the CLV looking away from leaf 0
// along branch e those are e's two child branches, for the CLV looking
// toward leaf 0 it is e's sibling (whose away-looking CLV consumes it).
// Later targets in those ranges are reached from CLVs deeper in the range,
// which carry their own need positions.
func (m *Manager) BeginSweep(targets []*tree.Edge) {
	so := m.sweep.order
	nb := len(so.Edges)
	nt := m.sweep.nextTarget
	for i := range nt {
		nt[i] = noNeed
	}
	for _, e := range targets {
		nt[so.Pos[e.ID]] = so.Pos[e.ID]
	}
	for p := nb - 1; p >= 0; p-- {
		if nt[p] == noNeed {
			nt[p] = nt[p+1]
		}
	}
	// self: the branch's own position if it is a target; first: the first
	// target inside the branch's subtree range.
	self := func(id int) int32 {
		if p := so.Pos[id]; nt[p] == p {
			return p
		}
		return noNeed
	}
	first := func(id int) int32 {
		if t := nt[so.Pos[id]]; t <= so.End[id] {
			return t
		}
		return noNeed
	}
	for id, up := range so.Up {
		kids := [2]int32{noNeed, noNeed}
		if !m.tr.Tail(up).IsLeaf() {
			a, b := m.tr.Children(up) // the toward-leaf-0 CLVs of the two child branches
			ea, eb := m.tr.EdgeOf(a).ID, m.tr.EdgeOf(b).ID
			kids = [2]int32{first(ea), first(eb)}
			m.setNeed(a, self(ea), kids[1], noNeed)
			m.setNeed(b, self(eb), kids[0], noNeed)
		}
		m.setNeed(m.tr.Reverse(up), self(id), kids[0], kids[1])
	}
	// The root branch (leaf 0's) has no sibling; its toward-leaf-0 CLV is
	// needed at its own position only.
	root := so.Edges[0].ID
	m.setNeed(so.Up[root], self(root), noNeed, noNeed)
	m.sweep.declared = true
	m.sweep.cur = 0
}

// setNeed stores d's need positions in ascending order (no-op for a
// leaf-tailed direction, which has no slot-managed CLV).
func (m *Manager) setNeed(d tree.Dir, a, b, c int32) {
	idx := m.tr.CLVIndex(d)
	if idx < 0 {
		return
	}
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	n := m.sweep.need[needsPerCLV*idx:]
	n[0], n[1], n[2] = a, b, c
}

// AdvanceSweep tells the manager the sweep is now acquiring branch e.
func (m *Manager) AdvanceSweep(e *tree.Edge) { m.sweep.cur = m.sweep.order.Pos[e.ID] }

// EndSweep withdraws the declaration: replacement is the strategy's alone
// again.
func (m *Manager) EndSweep() { m.sweep.declared = false }

// nextNeed returns the first position at or after the sweep's current one at
// which CLV idx is needed, or noNeed.
func (m *Manager) nextNeed(idx int) int32 {
	if !m.sweep.declared {
		return noNeed
	}
	for _, p := range m.sweep.need[needsPerCLV*idx : needsPerCLV*idx+needsPerCLV] {
		if p >= m.sweep.cur {
			return p
		}
	}
	return noNeed
}
