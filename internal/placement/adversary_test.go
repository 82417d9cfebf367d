package placement

import (
	"math/rand"

	"phylomem/internal/core"
)

// seededRandom is the strategy-independence tests' adversary: it evicts a
// pseudo-random candidate from a seeded source. Any valid victim must yield
// identical output, and the two cost-aware rules (cost, costage) mostly
// agree, so the differential suites also run this one.
type seededRandom struct{ rng *rand.Rand }

func newSeededRandom(seed int64) *seededRandom {
	return &seededRandom{rng: rand.New(rand.NewSource(seed))}
}

func (*seededRandom) Name() string { return "random" }

func (r *seededRandom) Victim(candidates []int, _ *core.EvictionContext) int {
	return candidates[r.rng.Intn(len(candidates))]
}

// costOnly is the paper's cost-only rule, a second deterministic tie-break
// beside core.CostAge: evict the CLV cheapest to recompute, ties toward the
// least recently used.
type costOnly struct{}

func (costOnly) Name() string { return "cost" }

func (costOnly) Victim(candidates []int, ctx *core.EvictionContext) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if ctx.Cost[c] < ctx.Cost[best] || ctx.Cost[c] == ctx.Cost[best] && ctx.LastAccess[c] < ctx.LastAccess[best] {
			best = c
		}
	}
	return best
}

// testStrategy resolves a differential-suite strategy name: costage, the
// cost-only baseline, or the adversary. The legs still named "lru" (their ids
// predate the deletion of core.LRU) run the adversary under a second seed.
func testStrategy(name string) core.Strategy {
	switch name {
	case "cost":
		return costOnly{}
	case "lru":
		return newSeededRandom(2)
	case "random":
		return newSeededRandom(1)
	}
	return core.StrategyByName(name)
}
