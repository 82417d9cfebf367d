package phylo

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

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
// newly allocated set (FillCLVs; a pool spreads the CLVs of a level over its
// workers).
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
// caller-owned storage: CLV i at clvs[i·CLVLen:] and scales[i·ScaleLen:].
//
// The CLVs run in dependency levels. Tips are level 0 and a CLV's level is
// one more than the highest level of its two operands, so a level reads only
// CLVs of lower levels and its own CLVs are independent of each other. A pool
// with more than one worker runs each level of two or more CLVs as one
// ForEach with a Scratch per worker; a nil or one-worker pool, and every
// narrower level, runs inline. Either way each CLV is one serial
// UpdateCLVScratch on the same operands and P matrices, so the bits do not
// depend on the pool.
//
// It returns the number of levels and the pruning-kernel time summed over
// every CLV: the serial-equivalent cost of the fill, whatever the pool. The
// storage is usually fresh, so each CLV's pages are faulted in (touchPages)
// before its kernel is timed: the time is a warm recompute's, which is what
// the slot manager calibrates its recompute rate with.
func FillCLVs(p *Partition, tr *tree.Tree, clvs []float64, scales []int32, pool *parallel.Pool) (levels int, kernel time.Duration) {
	f := &FullCLVSet{part: p, tr: tr, clvs: clvs, scales: scales}
	byLevel := clvLevels(tr)
	scratch := []*Scratch{p.NewScratch()}
	if pool != nil && pool.Workers() > 1 {
		for len(scratch) < pool.Size() {
			scratch = append(scratch, p.NewScratch())
		}
	}
	var ns atomic.Int64
	update := func(idx int, sc *Scratch) {
		a, b := tr.Children(tr.DirOfCLV(idx))
		pa, pb := sc.P(0), sc.P(1)
		p.FillP(pa, tr.EdgeOf(a).Length)
		p.FillP(pb, tr.EdgeOf(b).Length)
		dst, dstScale := f.view(idx)
		touchPages(dst)
		touchPages(dstScale)
		start := time.Now()
		p.UpdateCLVScratch(dst, dstScale, f.Operand(a), f.Operand(b), pa, pb, sc)
		ns.Add(int64(time.Since(start)))
	}
	for _, level := range byLevel {
		if len(scratch) == 1 || len(level) < 2 {
			for _, idx := range level {
				update(idx, scratch[0])
			}
			continue
		}
		pool.ForEach(len(level), func(i, worker int) { update(level[i], scratch[worker]) })
	}
	return len(byLevel), time.Duration(ns.Load())
}

// touchPages stores a zero into dst at least once per 4 KiB memory page it
// spans (every 512th element, at most 4 KiB apart for elements of at most 8
// bytes, and the last), so that the first-touch page faults of fresh storage
// are taken here rather than inside the kernel that overwrites dst.
func touchPages[T float64 | int32](dst []T) {
	for i := 0; i < len(dst); i += 512 {
		dst[i] = 0
	}
	if n := len(dst); n > 0 {
		dst[n-1] = 0
	}
}

// clvLevels groups the inner CLV indices by dependency level (FillCLVs),
// level 1 first, each level in ascending index order.
func clvLevels(tr *tree.Tree) [][]int {
	n := tr.NumInnerCLVs()
	level := make([]int, n)
	levelOf := func(d tree.Dir) int {
		if tr.Tail(d).IsLeaf() {
			return 0
		}
		return level[tr.CLVIndex(d)]
	}
	// A CLV's operands summarize strictly fewer leaves than it does, so
	// ascending subtree size visits both operands of each CLV first.
	leaves := tr.SubtreeLeafCounts()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return leaves[tr.DirOfCLV(order[i])] < leaves[tr.DirOfCLV(order[j])]
	})
	depth := 0
	for _, idx := range order {
		a, b := tr.Children(tr.DirOfCLV(idx))
		level[idx] = 1 + max(levelOf(a), levelOf(b))
		depth = max(depth, level[idx])
	}
	byLevel := make([][]int, depth)
	for idx, l := range level {
		byLevel[l-1] = append(byLevel[l-1], idx)
	}
	return byLevel
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
