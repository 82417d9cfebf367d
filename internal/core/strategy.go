// Package core implements the paper's contribution: Active Management of
// CLVs (AMC). A potentially large set of global CLVs (one per inner directed
// edge of the reference tree, 3(n-2) in total) is mapped onto a much smaller
// pool of physical memory "slots". Two index arrays map global CLV index to
// slot and back; a pinning mechanism protects CLVs that an in-flight
// Felsenstein-pruning traversal still needs; and when a new slot is needed,
// the declared branch sweep's next need and then CostAge decide which
// slotted CLV to overwrite.
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
// CostAge is the only rule the slot manager runs. The interface stays as a
// seam: tests plug other rules (a seeded random victim, the paper's
// cost-only rule) through it to show that placement output does not depend
// on eviction, and the benchmark harness names its rule through
// StrategyByName.
type Strategy interface {
	// Name identifies the strategy in logs and benchmark output.
	Name() string
	// Victim returns the global CLV index to evict, chosen from candidates
	// (non-empty, sorted ascending). It must return one of the candidates.
	Victim(candidates []int, ctx *EvictionContext) int
}

// CostAge evicts the CLV with the lowest recomputation-cost-to-idle-age
// ratio: cheap CLVs that have not been used for a while go first, while both
// expensive CLVs and hot recently-computed ones are protected. It is the
// slot manager's one replacement rule (Config.Strategy nil), for the
// placement engine and the pplacer baseline alike.
//
// The paper's default evicts by cost alone. That rule interacts badly with
// depth-first sweeps over the tree: during a descent, the CLVs needed next
// are exactly the small, recently computed ones that cost-only eviction
// discards first, which cascades into full-subtree rebuilds at every step.
// With a declared sweep (Manager.BeginSweep) the next need decides and the
// rule only breaks ties; without one, as in pplacer's precompute, CostAge
// recomputes less than cost-only eviction on every shape measured
// (EXPERIMENTS.md, "One replacement rule").
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

// StrategyByName returns the strategy with the given name: "costage" is the
// only one. It returns nil for any other name.
func StrategyByName(name string) Strategy {
	if name == (CostAge{}).Name() {
		return CostAge{}
	}
	return nil
}
