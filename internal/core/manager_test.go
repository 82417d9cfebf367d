package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phylomem/internal/model"
	"phylomem/internal/parallel"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

type fixture struct {
	tr   *tree.Tree
	part *phylo.Partition
	full *phylo.FullCLVSet
}

func buildFixture(t testing.TB, seed int64, n, width int) *fixture {
	t.Helper()
	fx, err := tryFixture(seed, n, width)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func tryFixture(seed int64, n, width int) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(n, 0.15, rng)
	if err != nil {
		return nil, err
	}
	return fixtureForTree(tr, rng, width)
}

// fixtureForTree builds a random DNA alignment of the given width over tr's
// leaves and the fully resident CLV set to compare against.
func fixtureForTree(tr *tree.Tree, rng *rand.Rand, width int) (*fixture, error) {
	return alphabetFixture(tr, rng, width, seq.DNA, "ACGT", model.JC69())
}

// alphabetFixture is fixtureForTree over any alphabet: residues drawn from
// letters, scored under m with two Gamma categories.
func alphabetFixture(tr *tree.Tree, rng *rand.Rand, width int, alphabet *seq.Alphabet, letters string, m *model.Model) (*fixture, error) {
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, width)
		for i := range data {
			data[i] = letters[rng.Intn(len(letters))]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(alphabet, seqs)
	if err != nil {
		return nil, err
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		return nil, err
	}
	rates, err := model.GammaRates(1.0, 2)
	if err != nil {
		return nil, err
	}
	part, err := phylo.NewPartition(m, rates, comp, tr)
	if err != nil {
		return nil, err
	}
	full, err := phylo.ComputeFullCLVSet(part, tr, nil)
	if err != nil {
		return nil, err
	}
	return &fixture{tr: tr, part: part, full: full}, nil
}

func operandsEqual(p *phylo.Partition, a, b phylo.Operand) bool {
	if len(a.CLV) != len(b.CLV) {
		return false
	}
	for i := range a.CLV {
		if a.CLV[i] != b.CLV[i] {
			return false
		}
	}
	for i := range a.Scale {
		if a.Scale[i] != b.Scale[i] {
			return false
		}
	}
	return true
}

func TestNewManagerValidation(t *testing.T) {
	fx := buildFixture(t, 1, 16, 40)
	min := fx.tr.MinSlots()
	if _, err := NewManager(fx.part, fx.tr, Config{Slots: min - 1}); err == nil {
		t.Fatal("slots below minimum accepted")
	}
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.NumInnerCLVs() + 100})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots() != fx.tr.NumInnerCLVs() {
		t.Fatalf("slots not clamped: %d", m.Slots())
	}
	// The one replacement rule: a zero Config runs CostAge, as the placement
	// engine and pplacer do.
	if m.strategy != (CostAge{}) {
		t.Fatalf("default strategy = %q, want costage", m.strategy.Name())
	}
	if m.Bytes() != int64(m.Slots())*fx.part.CLVBytes() {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

// costOnly is the paper's cost-only replacement rule, kept as a test-side
// baseline: evict the CLV cheapest to recompute (fewest leaves below it),
// ties toward the least recently used.
type costOnly struct{}

func (costOnly) Name() string { return "cost" }

func (costOnly) Victim(candidates []int, ctx *EvictionContext) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if ctx.Cost[c] < ctx.Cost[best] || ctx.Cost[c] == ctx.Cost[best] && ctx.LastAccess[c] < ctx.LastAccess[best] {
			best = c
		}
	}
	return best
}

// testStrategy resolves the names the differential tests range over: the
// costage rule, the cost-only baseline and the seeded adversary.
func testStrategy(name string) Strategy {
	switch name {
	case "cost":
		return costOnly{}
	case "random":
		return newSeededRandom(1)
	}
	return StrategyByName(name)
}

// seededRandom is the strategy-independence tests' adversary: it evicts a
// pseudo-random candidate from a seeded source, ignoring cost and recency. Any
// valid victim must yield identical CLVs, and this says so with something
// other than the cost-aware rules, which mostly agree.
type seededRandom struct{ rng *rand.Rand }

func newSeededRandom(seed int64) *seededRandom {
	return &seededRandom{rng: rand.New(rand.NewSource(seed))}
}

func (*seededRandom) Name() string { return "random" }

func (r *seededRandom) Victim(candidates []int, _ *EvictionContext) int {
	return candidates[r.rng.Intn(len(candidates))]
}

// The central correctness property: slot-managed CLVs are bit-identical to
// the fully resident set, for any slot count ≥ minimum and any strategy, and
// so is the up-front fill of reference mode.
func TestManagerMatchesFullSet(t *testing.T) {
	fx := buildFixture(t, 2, 20, 60)
	min := fx.tr.MinSlots()
	for _, strategy := range []Strategy{costOnly{}, CostAge{}, newSeededRandom(7)} {
		for _, slots := range []int{min, min + 2, min + 7, fx.tr.NumInnerCLVs()} {
			m, err := NewManager(fx.part, fx.tr, Config{Slots: slots, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 60; trial++ {
				d := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
				op, err := m.Acquire(d)
				if err != nil {
					t.Fatalf("strategy %s slots %d: Acquire(%d): %v", strategy.Name(), slots, d, err)
				}
				want := fx.full.Operand(d)
				if !operandsEqual(fx.part, op, want) {
					t.Fatalf("strategy %s slots %d: CLV mismatch at dir %d", strategy.Name(), slots, d)
				}
				m.Release(d)
			}
			if got := m.PinnedSlots(); got != 0 {
				t.Fatalf("strategy %s slots %d: %d slots still pinned after release", strategy.Name(), slots, got)
			}
		}
	}

	// The up-front fill (Config.Fill), on NT and AA, inline and across CLVs:
	// every CLV is resident and bit-equal to ComputeFullCLVSet, no Acquire
	// recomputes, nothing is counted, and the rate is calibrated.
	aa, err := alphabetFixture(fx.tr, rand.New(rand.NewSource(3)), 60, seq.AA, "ACDEFGHIKLMNPQRSTVWY", model.SyntheticAA())
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.New(3)
	defer pool.Close()
	nclv := fx.tr.NumInnerCLVs()
	for _, f := range []*fixture{fx, aa} {
		for _, p := range []*parallel.Pool{nil, pool} {
			label := fmt.Sprintf("fill %d states, pool %v", f.part.States(), p != nil)
			m, err := NewManager(f.part, f.tr, Config{Slots: nclv, FillPool: p, Fill: true})
			if err != nil {
				t.Fatal(err)
			}
			if !m.Filled() {
				t.Fatalf("%s: not filled", label)
			}
			for i := 0; i < nclv; i++ {
				d := f.tr.DirOfCLV(i)
				op, err := m.Acquire(d)
				if err != nil {
					t.Fatal(err)
				}
				if !operandsEqual(f.part, op, f.full.Operand(d)) {
					t.Fatalf("%s: CLV %d differs from ComputeFullCLVSet", label, i)
				}
				m.Release(d)
			}
			if st := m.Stats(); st.Hits != 0 || st.Recomputes != 0 || st.RecomputeLeafWork != 0 || st.Evictions != 0 {
				t.Fatalf("%s: stats %+v, want no counted activity", label, st)
			}
			if rs := m.ReclaimStats(); rs.RecomputeNsPerLeaf <= 0 || rs.ResidentCLVs != nclv {
				t.Fatalf("%s: reclaim picture %+v", label, rs)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := m.Resize(nclv); err != nil || !m.Filled() {
				t.Fatalf("%s: no-op Resize: err %v, filled %v", label, err, m.Filled())
			}
			if err := m.Resize(nclv / 2); err != nil || m.Filled() {
				t.Fatalf("%s: shrinking Resize: err %v, filled %v", label, err, m.Filled())
			}
		}
	}
	if m, err := NewManager(fx.part, fx.tr, Config{Fill: true}); err != nil || m.Slots() != nclv {
		t.Fatalf("Fill without Slots: err %v, want a slot for each of %d inner CLVs", err, nclv)
	}
}

// TestFillRateIsSerialEquivalent: the fill calibrates the recompute rate with
// every CLV's kernel time summed over the fill's workers, not with its wall
// time, which a parallel fill shortens by its speedup. At any pool size the
// timed leaf work is the whole tree's and the rate is positive.
func TestFillRateIsSerialEquivalent(t *testing.T) {
	fx := buildFixture(t, 5, 32, 80)
	var total uint64
	counts := fx.tr.SubtreeLeafCounts()
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		total += uint64(counts[fx.tr.DirOfCLV(i)])
	}
	for _, workers := range []int{1, 4} {
		pool := parallel.New(workers)
		m, err := NewManager(fx.part, fx.tr, Config{FillPool: pool, Fill: true})
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.timedLeafWork != total {
			t.Fatalf("pool %d: timed leaf work %d, want the tree's %d", workers, m.timedLeafWork, total)
		}
		if rs := m.ReclaimStats(); rs.RecomputeNsPerLeaf <= 0 {
			t.Fatalf("pool %d: ReclaimStats rate %v", workers, rs.RecomputeNsPerLeaf)
		}
		if m.FillLevels() < 2 {
			t.Fatalf("pool %d: %d fill levels", workers, m.FillLevels())
		}
	}
}

// The paper's log n claim, as a property: with exactly MinSlots slots
// (≤ log2(n)+2), every CLV of every random tree can be materialized.
func TestMinSlotsSufficientProperty(t *testing.T) {
	f := func(seed int64) bool {
		fx, err := tryFixture(seed, 4+int(uint64(seed)%48), 12)
		if err != nil {
			return false
		}
		min := fx.tr.MinSlots()
		if min > tree.LogNBound(fx.tr.NumLeaves()) {
			return false
		}
		m, err := NewManager(fx.part, fx.tr, Config{Slots: min})
		if err != nil {
			return false
		}
		for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
			d := fx.tr.DirOfCLV(i)
			op, err := m.Acquire(d)
			if err != nil {
				return false
			}
			if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
				return false
			}
			m.Release(d)
		}
		return m.PinnedSlots() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedTreeAtLogBound(t *testing.T) {
	// The worst-case topology: a fully balanced tree, with exactly the
	// paper's log2(n)+2 slots.
	for _, n := range []int{8, 32, 128} {
		tr, err := tree.Balanced(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		var seqs []seq.Sequence
		for _, leaf := range tr.Leaves() {
			data := make([]byte, 16)
			for i := range data {
				data[i] = "ACGT"[rng.Intn(4)]
			}
			seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
		}
		msa, err := seq.NewMSA(seq.DNA, seqs)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := seq.Compress(msa)
		if err != nil {
			t.Fatal(err)
		}
		part, err := phylo.NewPartition(model.JC69(), model.UniformRates(), comp, tr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(part, tr, Config{Slots: tree.LogNBound(n)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.NumInnerCLVs(); i++ {
			d := tr.DirOfCLV(i)
			if _, err := m.Acquire(d); err != nil {
				t.Fatalf("n=%d: Acquire(%d) with log bound slots: %v", n, d, err)
			}
			m.Release(d)
		}
	}
}

func TestAcquireHitAfterAcquire(t *testing.T) {
	fx := buildFixture(t, 3, 12, 30)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.NumInnerCLVs()})
	if err != nil {
		t.Fatal(err)
	}
	d := fx.tr.DirOfCLV(0)
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	m.Release(d)
	before := m.Stats()
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	m.Release(d)
	after := m.Stats()
	if after.Recomputes != before.Recomputes {
		t.Fatalf("re-acquire recomputed: %d -> %d", before.Recomputes, after.Recomputes)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("hit not counted: %d -> %d", before.Hits, after.Hits)
	}
}

func TestFullSlotsComputeEachCLVOnce(t *testing.T) {
	fx := buildFixture(t, 4, 14, 30)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.NumInnerCLVs()})
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
			d := fx.tr.DirOfCLV(i)
			if _, err := m.Acquire(d); err != nil {
				t.Fatal(err)
			}
			m.Release(d)
		}
	}
	st := m.Stats()
	if st.Recomputes != uint64(fx.tr.NumInnerCLVs()) {
		t.Fatalf("recomputes = %d, want %d (each CLV exactly once)", st.Recomputes, fx.tr.NumInnerCLVs())
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d with full slots", st.Evictions)
	}
}

func TestMoreSlotsNeverMoreRecomputes(t *testing.T) {
	fx := buildFixture(t, 6, 24, 30)
	min := fx.tr.MinSlots()
	workload := func(m *Manager) uint64 {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			d := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
			if _, err := m.Acquire(d); err != nil {
				t.Fatal(err)
			}
			m.Release(d)
		}
		return m.Stats().Recomputes
	}
	prev := uint64(math.MaxUint64)
	for _, slots := range []int{min, min + 5, min + 20, fx.tr.NumInnerCLVs()} {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		rec := workload(m)
		if rec > prev {
			t.Fatalf("slots %d: recomputes %d exceed smaller pool's %d", slots, rec, prev)
		}
		prev = rec
	}
}

// slotted reports whether d's CLV currently occupies a slot.
func slotted(m *Manager, d tree.Dir) bool {
	idx := m.tr.CLVIndex(d)
	return idx >= 0 && m.slotOf[idx] != noSlot
}

func TestPinnedNeverEvicted(t *testing.T) {
	fx := buildFixture(t, 7, 18, 30)
	min := fx.tr.MinSlots()
	m, err := NewManager(fx.part, fx.tr, Config{Slots: min + 2})
	if err != nil {
		t.Fatal(err)
	}
	d := fx.tr.DirOfCLV(fx.tr.NumInnerCLVs() - 1)
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	// Hammer the manager with other materializations.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
		if x == d {
			continue
		}
		if _, err := m.Acquire(x); err != nil {
			t.Fatal(err)
		}
		m.Release(x)
	}
	if !slotted(m, d) {
		t.Fatal("pinned CLV was evicted")
	}
	before := m.Stats().Recomputes
	op, err := m.Acquire(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Recomputes != before {
		t.Fatal("pinned CLV required recomputation")
	}
	if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
		t.Fatal("pinned CLV content corrupted")
	}
	m.Release(d)
	m.Release(d)
	if m.PinnedSlots() != 0 {
		t.Fatalf("pins remain: %d", m.PinnedSlots())
	}
}

func TestErrNoSlotsWhenAllPinned(t *testing.T) {
	fx := buildFixture(t, 8, 16, 30)
	min := fx.tr.MinSlots()
	m, err := NewManager(fx.part, fx.tr, Config{Slots: min})
	if err != nil {
		t.Fatal(err)
	}
	// Pin CLVs until the pool is exhausted.
	var pinned []tree.Dir
	for i := 0; i < fx.tr.NumInnerCLVs() && m.PinnedSlots() < m.Slots(); i++ {
		d := fx.tr.DirOfCLV(i)
		if _, err := m.Acquire(d); err != nil {
			break
		}
		pinned = append(pinned, d)
	}
	if m.PinnedSlots() != m.Slots() {
		t.Skipf("could not pin all %d slots (pinned %d)", m.Slots(), m.PinnedSlots())
	}
	// Any unslotted acquisition must now fail with ErrNoSlots.
	for i := fx.tr.NumInnerCLVs() - 1; i >= 0; i-- {
		d := fx.tr.DirOfCLV(i)
		if slotted(m, d) {
			continue
		}
		_, err := m.Acquire(d)
		if !errors.Is(err, ErrNoSlots) {
			t.Fatalf("Acquire with all slots pinned: err = %v, want ErrNoSlots", err)
		}
		break
	}
	// Failure must not leak pins.
	for _, d := range pinned {
		m.Release(d)
	}
	if m.PinnedSlots() != 0 {
		t.Fatalf("pins remain after unwind: %d", m.PinnedSlots())
	}
}

func TestStrategyByName(t *testing.T) {
	if s := StrategyByName("costage"); s != (CostAge{}) {
		t.Errorf("StrategyByName(costage) = %v", s)
	}
	for _, name := range []string{"cost", "nope", "lru", ""} {
		if StrategyByName(name) != nil {
			t.Errorf("unknown strategy name %q accepted", name)
		}
	}
}

func TestWorkersProduceIdenticalCLVs(t *testing.T) {
	fx := buildFixture(t, 12, 16, 200)
	m1, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.New(4)
	defer pool.Close()
	m4, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		d := fx.tr.DirOfCLV(i)
		a, err := m1.Acquire(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m4.Acquire(d)
		if err != nil {
			t.Fatal(err)
		}
		if !operandsEqual(fx.part, a, b) {
			t.Fatalf("worker count changed CLV at dir %d", d)
		}
		m1.Release(d)
		m4.Release(d)
	}
}

// Stress property: random interleavings of Acquire/Release, held or not, across
// strategies never corrupt the slot maps, never evict pinned CLVs, and
// always return bit-correct CLVs.
func TestManagerRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		fx, err := tryFixture(seed, 6+int(uint64(seed)%30), 15)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		strategies := []Strategy{costOnly{}, CostAge{}, newSeededRandom(seed)}
		m, err := NewManager(fx.part, fx.tr, Config{
			Slots:    fx.tr.MinSlots() + 1 + rng.Intn(6),
			Strategy: strategies[rng.Intn(len(strategies))],
		})
		if err != nil {
			return false
		}
		type held struct{ d tree.Dir }
		var pins []held
		for op := 0; op < 120; op++ {
			switch {
			case len(pins) > 0 && rng.Intn(3) == 0:
				i := rng.Intn(len(pins))
				m.Release(pins[i].d)
				pins = append(pins[:i], pins[i+1:]...)
			default:
				d := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
				opnd, err := m.Acquire(d)
				if err != nil {
					// Legitimate only when pins have exhausted the pool.
					if !errors.Is(err, ErrNoSlots) {
						return false
					}
					continue
				}
				if !operandsEqual(fx.part, opnd, fx.full.Operand(d)) {
					return false
				}
				if rng.Intn(2) == 0 {
					pins = append(pins, held{d: d})
				} else {
					m.Release(d)
				}
			}
			// Invariant: every pinned dir is still slotted.
			for _, h := range pins {
				if !slotted(m, h.d) {
					return false
				}
			}
		}
		for _, h := range pins {
			m.Release(h.d)
		}
		return m.PinnedSlots() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCostAgeVictimSelection(t *testing.T) {
	ctx := &EvictionContext{
		Cost:       []int{100, 2, 50, 2},
		LastAccess: []uint64{99, 99, 10, 10},
		Tick:       100,
	}
	// Scores: 100/2=50, 2/2=1, 50/91≈0.55, 2/91≈0.022 → victim 3 (cheap+old).
	if got := (CostAge{}).Victim([]int{0, 1, 2, 3}, ctx); got != 3 {
		t.Fatalf("CostAge victim = %d, want 3", got)
	}
	// A hot cheap CLV is protected over a cold moderately-priced one.
	if got := (CostAge{}).Victim([]int{1, 2}, ctx); got != 2 {
		t.Fatalf("CostAge victim = %d, want 2 (cold) over 1 (hot)", got)
	}
}

// The sweep-cascade regression: on a DFS branch sweep with a mid-sized pool,
// CostAge must stay within a small factor of the optimal
// one-computation-per-CLV bound, where cost-only eviction cascades.
func TestCostAgeAvoidsSweepCascade(t *testing.T) {
	fx := buildFixture(t, 77, 120, 12)
	slots := fx.tr.NumInnerCLVs() / 3
	sweep := func(s Strategy) uint64 {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: slots, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range fx.tr.BranchOrderDFS() {
			a, b := e.Nodes()
			for _, d := range []tree.Dir{fx.tr.DirOf(e, a), fx.tr.DirOf(e, b)} {
				if _, err := m.Acquire(d); err != nil {
					t.Fatal(err)
				}
				m.Release(d)
			}
		}
		return m.Stats().Recomputes
	}
	costage := sweep(CostAge{})
	cost := sweep(costOnly{})
	ideal := uint64(fx.tr.NumInnerCLVs())
	if costage > 6*ideal {
		t.Fatalf("CostAge sweep recomputes %d exceed 6x the ideal %d", costage, ideal)
	}
	if cost < costage {
		t.Fatalf("expected cost-only eviction (%d) to recompute at least as much as CostAge (%d) on a sweep", cost, costage)
	}
}
