package phylo

import (
	"fmt"
	"sort"

	"phylomem/internal/parallel"
	"phylomem/internal/tree"
)

// FullCLVSet holds all 3(n-2) inner directional CLVs resident in memory at
// once: the model fit's store, and the ground truth that the slot-managed
// path (internal/core) is property-tested against.
type FullCLVSet struct {
	part *Partition
	tr   *tree.Tree

	clvs   []float64 // NumInnerCLVs × CLVLen, indexed by dense CLV index
	scales []int32   // NumInnerCLVs × ScaleLen
}

// ComputeFullCLVSet computes every inner directional CLV of the tree into a
// newly allocated set (FillCLVs).
func ComputeFullCLVSet(p *Partition, tr *tree.Tree, pool *parallel.Pool) (*FullCLVSet, error) {
	f := &FullCLVSet{
		part:   p,
		tr:     tr,
		clvs:   make([]float64, tr.NumInnerCLVs()*p.CLVLen()),
		scales: make([]int32, tr.NumInnerCLVs()*p.ScaleLen()),
	}
	FillCLVs(p, tr, f.clvs, f.scales, pool)
	return f, nil
}

// FillCLVs computes every inner directional CLV of the tree, each once, into
// caller-owned storage: CLV i at clvs[i·CLVLen:] and scales[i·ScaleLen:]. A
// CLV's two operands summarize strictly fewer leaves than it does, so visiting
// the CLVs in ascending subtree size (stable by index) finds both operands of
// each one ready. A non-nil pool enables the across-site parallel kernel for
// each update; nil runs serially with identical results.
func FillCLVs(p *Partition, tr *tree.Tree, clvs []float64, scales []int32, pool *parallel.Pool) {
	f := &FullCLVSet{part: p, tr: tr, clvs: clvs, scales: scales}
	leaves := tr.SubtreeLeafCounts()
	order := make([]int, tr.NumInnerCLVs())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return leaves[tr.DirOfCLV(order[i])] < leaves[tr.DirOfCLV(order[j])]
	})
	sc := p.NewScratch()
	pa := sc.P(0)
	pb := sc.P(1)
	for _, idx := range order {
		a, b := tr.Children(tr.DirOfCLV(idx))
		p.FillP(pa, tr.EdgeOf(a).Length)
		p.FillP(pb, tr.EdgeOf(b).Length)
		dst, dstScale := f.view(idx)
		p.UpdateCLVPooled(dst, dstScale, f.Operand(a), f.Operand(b), pa, pb, pool, sc)
	}
}

func (f *FullCLVSet) view(idx int) ([]float64, []int32) {
	cl := f.part.CLVLen()
	sl := f.part.ScaleLen()
	return f.clvs[idx*cl : (idx+1)*cl], f.scales[idx*sl : (idx+1)*sl]
}

// Operand returns the likelihood operand for directed edge d: the tip codes
// when Tail(d) is a leaf, otherwise the stored CLV.
func (f *FullCLVSet) Operand(d tree.Dir) Operand {
	if u := f.tr.Tail(d); u.IsLeaf() {
		return TipOperand(f.part.TipCodes(u.ID))
	}
	idx := f.tr.CLVIndex(d)
	clv, scale := f.view(idx)
	return CLVOperand(clv, scale)
}

// TreeLogLik evaluates the tree log-likelihood at the given edge, which by
// time-reversibility is independent of the edge chosen.
func (f *FullCLVSet) TreeLogLik(e *tree.Edge) float64 {
	a, b := e.Nodes()
	da := f.tr.DirOf(e, a)
	db := f.tr.DirOf(e, b)
	sc := f.part.NewScratch()
	pm := sc.P(0)
	f.part.FillP(pm, e.Length)
	return f.part.EdgeLogLikScratch(f.Operand(da), f.Operand(db), pm, sc)
}

// CheckTreeCompatible verifies that the partition was built against a tree
// with the same leaf set as tr (used to catch mixed-up tree/alignment pairs
// early).
func (p *Partition) CheckTreeCompatible(tr *tree.Tree) error {
	if len(p.tipCodes) != tr.NumLeaves() {
		return fmt.Errorf("phylo: partition has %d tips, tree has %d leaves", len(p.tipCodes), tr.NumLeaves())
	}
	for _, leaf := range tr.Leaves() {
		if p.tipCodes[leaf.ID] == nil {
			return fmt.Errorf("phylo: no tip codes for leaf %q (id %d)", leaf.Name, leaf.ID)
		}
	}
	return nil
}
