// Package core implements the paper's contribution: Active Management of
// CLVs (AMC). A potentially large set of global CLVs (one per inner directed
// edge of the reference tree, 3(n-2) in total) is mapped onto a much smaller
// pool of physical memory "slots". Two index arrays map global CLV index to
// slot and back; a pinning mechanism protects CLVs that an in-flight
// Felsenstein-pruning traversal still needs; and a pluggable replacement
// strategy decides which slotted CLV to overwrite when a new slot is needed.
//
// With the number of slots set to at least the tree's Sethi–Ullman minimum
// (bounded by log2(n)+2), any single CLV can always be materialized; with
// more slots, CLVs are retained across traversals and recomputation cost
// falls — the memory/runtime trade-off the paper measures.
package core

// EvictionContext carries the bookkeeping a replacement strategy may consult
// when choosing a victim. All slices are indexed by global CLV index.
type EvictionContext struct {
	// Cost approximates the recomputation cost of each CLV as the number of
	// leaves in the subtree it summarizes (the paper's default metric).
	Cost []int
	// LastAccess is the logical tick of each CLV's most recent access.
	LastAccess []uint64
	// Tick is the current logical time.
	Tick uint64
}

// Strategy selects which slotted, unpinned CLV to overwrite. Implementations
// must be deterministic functions of their inputs (and their own internal
// state) so that placement results are reproducible. While the caller has a
// sweep declared (Manager.BeginSweep) the candidates are only the CLVs tied
// for the farthest next need; otherwise they are every evictable CLV.
//
// This is the generic replacement-strategy interface the paper describes:
// the manager invokes it as a callback, and developers can fully customize
// the choice.
type Strategy interface {
	// Name identifies the strategy in logs and benchmark output.
	Name() string
	// Victim returns the global CLV index to evict, chosen from candidates
	// (non-empty, sorted ascending). It must return one of the candidates.
	Victim(candidates []int, ctx *EvictionContext) int
}

// CostBased is the paper's default strategy: evict the CLV that is cheapest
// to recompute, approximated by the number of descendant leaves it
// summarizes. Ties break toward the least recently used.
type CostBased struct{}

// Name implements Strategy.
func (CostBased) Name() string { return "cost" }

// Victim implements Strategy.
func (CostBased) Victim(candidates []int, ctx *EvictionContext) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		switch {
		case ctx.Cost[c] < ctx.Cost[best]:
			best = c
		case ctx.Cost[c] == ctx.Cost[best] && ctx.LastAccess[c] < ctx.LastAccess[best]:
			best = c
		}
	}
	return best
}

// CostAge evicts the CLV with the lowest recomputation-cost-to-idle-age
// ratio: cheap CLVs that have not been used for a while go first, while both
// expensive CLVs and hot recently-computed ones are protected.
//
// This hybrid exists because the pure cost-based policy interacts badly with
// depth-first sweeps over the tree (lookup-table builds, branch-block
// precomputation): during a descent, the CLVs needed next are exactly the
// small, recently computed ones that pure cost-based eviction discards
// first, which cascades into full-subtree rebuilds at every step. Measured
// on the pro_ref-shaped workload, CostAge reduces sweep recomputations by
// more than an order of magnitude relative to CostBased (see the
// ablation-strategies experiment) — an instance of the "better replacement
// strategies" the paper's future work calls for. The placement engine uses
// it as its default.
type CostAge struct{}

// Name implements Strategy.
func (CostAge) Name() string { return "costage" }

// Victim implements Strategy.
func (CostAge) Victim(candidates []int, ctx *EvictionContext) int {
	best := candidates[0]
	bestScore := costAgeScore(best, ctx)
	for _, c := range candidates[1:] {
		if s := costAgeScore(c, ctx); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

func costAgeScore(c int, ctx *EvictionContext) float64 {
	age := float64(ctx.Tick-ctx.LastAccess[c]) + 1
	return float64(ctx.Cost[c]) / age
}

// StrategyByName constructs one of the built-in strategies, "cost" or
// "costage". It returns nil for unknown names.
func StrategyByName(name string) Strategy {
	switch name {
	case "cost":
		return CostBased{}
	case "costage":
		return CostAge{}
	}
	return nil
}
