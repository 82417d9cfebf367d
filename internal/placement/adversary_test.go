package placement

import (
	"math/rand"

	"phylomem/internal/core"
)

// seededRandom is the strategy-independence tests' adversary: it evicts a
// pseudo-random candidate from a seeded source. Any valid victim must yield
// identical output, and the two built-in policies (cost, costage) mostly
// agree, so the differential suites also run this one.
type seededRandom struct{ rng *rand.Rand }

func newSeededRandom(seed int64) *seededRandom {
	return &seededRandom{rng: rand.New(rand.NewSource(seed))}
}

func (*seededRandom) Name() string { return "random" }

func (r *seededRandom) Victim(candidates []int, _ *core.EvictionContext) int {
	return candidates[r.rng.Intn(len(candidates))]
}

// testStrategy resolves a differential-suite strategy name: a built-in, or
// the adversary. The legs still named "lru" (their ids predate the deletion
// of core.LRU) run the adversary under a second seed.
func testStrategy(name string) core.Strategy {
	switch name {
	case "lru":
		return newSeededRandom(2)
	case "random":
		return newSeededRandom(1)
	}
	return core.StrategyByName(name)
}
