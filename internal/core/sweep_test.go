package core

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"phylomem/internal/clvstore"
	"phylomem/internal/memacct"
	"phylomem/internal/tree"
)

// sweepBranches acquires both directional CLVs of every listed branch the way
// the placement engine does (more demanding end first), checking each against
// the fully resident set. With declare it announces the list as a sweep and
// advances the position per branch.
func sweepBranches(t testing.TB, m *Manager, fx *fixture, edges []*tree.Edge, declare bool) {
	t.Helper()
	su := fx.tr.SlotRequirements()
	if declare {
		m.BeginSweep(edges)
		defer m.EndSweep()
	}
	for _, e := range edges {
		if declare {
			m.AdvanceSweep(e)
		}
		a, b := e.Nodes()
		first, second := fx.tr.DirOf(e, a), fx.tr.DirOf(e, b)
		if su[second] > su[first] {
			first, second = second, first
		}
		for _, d := range []tree.Dir{first, second} {
			op, err := m.Acquire(d)
			if err != nil {
				t.Fatalf("branch %d: Acquire(%d) with %d slots: %v", e.ID, d, m.Slots(), err)
			}
			if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
				t.Fatalf("branch %d: CLV mismatch at dir %d", e.ID, d)
			}
		}
		m.Release(first)
		m.Release(second)
	}
}

// everyNth returns every n'th branch of the canonical sweep order.
func everyNth(tr *tree.Tree, n int) []*tree.Edge {
	var out []*tree.Edge
	for i, e := range tr.BranchOrderDFS() {
		if i%n == 0 {
			out = append(out, e)
		}
	}
	return out
}

func shapeFixtures(t *testing.T) map[string]*fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	random, err := tree.Random(48, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := tree.Balanced(32, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	caterpillar, err := tree.Caterpillar(40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*fixture{}
	for name, tr := range map[string]*tree.Tree{"random": random, "balanced": balanced, "caterpillar": caterpillar} {
		fx, err := fixtureForTree(tr, rand.New(rand.NewSource(32)), 24)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fx
	}
	return out
}

// The central property again, now with the future declared: whatever the
// sweep-aware replacement evicts, every acquired CLV is bit-identical to the
// fully resident set — on every tree shape, from the engine's minimum pool
// (MinSlots+1: one end of a branch stays pinned while the other is
// materialized) upward, with every strategy as the tie-break, with and
// without the spill tier. ErrNoSlots would fail the sweep.
func TestDeclaredSweepMatchesFullSet(t *testing.T) {
	for shape, fx := range shapeFixtures(t) {
		min := fx.tr.MinSlots()
		dense := fx.tr.BranchOrderDFS()
		sparse := everyNth(fx.tr, 5)
		for _, strategy := range []string{"cost", "costage", "random"} {
			for _, slots := range []int{min + 1, min + 2, min + 6, min + 20} {
				for _, spill := range []bool{false, true} {
					cfg := Config{Slots: slots, Strategy: testStrategy(strategy)}
					if spill {
						cfg.SpillStore = clvstore.NewMemStore(fx.tr.NumInnerCLVs(), fx.part.CLVLen(), fx.part.ScaleLen())
						cfg.SpillPolicy = SpillOnly{}
					}
					m, err := NewManager(fx.part, fx.tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sweepBranches(t, m, fx, dense, true)
					sweepBranches(t, m, fx, sparse, true)
					sweepBranches(t, m, fx, dense, true)
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("%s %s slots %d spill %v: %v", shape, strategy, slots, spill, err)
					}
					if got := m.PinnedSlots(); got != 0 {
						t.Fatalf("%s %s slots %d spill %v: %d slots still pinned", shape, strategy, slots, spill, got)
					}
					if spill && slots < fx.tr.NumInnerCLVs() && m.Stats().SpillReloads == 0 {
						t.Fatalf("%s %s slots %d: spill tier never reloaded; the case is vacuous", shape, strategy, slots)
					}
				}
			}
		}
	}
}

// At exactly MinSlots a single CLV can always be materialized, declared sweep
// or not.
func TestDeclaredSweepAtMinSlots(t *testing.T) {
	for shape, fx := range shapeFixtures(t) {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots(), Strategy: CostAge{}})
		if err != nil {
			t.Fatal(err)
		}
		order := fx.tr.BranchOrderDFS()
		m.BeginSweep(order)
		for _, e := range order {
			m.AdvanceSweep(e)
			a, b := e.Nodes()
			for _, d := range []tree.Dir{fx.tr.DirOf(e, a), fx.tr.DirOf(e, b)} {
				op, err := m.Acquire(d)
				if err != nil {
					t.Fatalf("%s: Acquire(%d) at MinSlots: %v", shape, d, err)
				}
				if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
					t.Fatalf("%s: CLV mismatch at dir %d", shape, d)
				}
				m.Release(d)
			}
		}
		m.EndSweep()
	}
}

// The declaration is a prediction, not a contract: branches acquired outside
// the declared list, against its order, or without advancing the position
// still yield correct CLVs.
func TestDeclaredSweepTolerantOfOtherAccess(t *testing.T) {
	fx := buildFixture(t, 33, 60, 24)
	order := fx.tr.BranchOrderDFS()
	reversed := make([]*tree.Edge, len(order))
	for i, e := range order {
		reversed[len(order)-1-i] = e
	}
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 3, Strategy: CostAge{}})
	if err != nil {
		t.Fatal(err)
	}
	m.BeginSweep(everyNth(fx.tr, 7))
	sweepBranches(t, m, fx, reversed, false) // never advances: the position stays at 0
	for _, e := range reversed {             // advances backwards, mostly to undeclared branches
		m.AdvanceSweep(e)
		sweepBranches(t, m, fx, []*tree.Edge{e}, false)
	}
	m.EndSweep()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The recompute bounds the design was chosen against, on the benchmark's
// shape (400 leaves, 54 slots): a dense sweep stays within 2.5x one
// computation per CLV for every tie-break, and on a sparse sweep — where a
// cheaper need list lost to plain CostAge — the declared sweep must not.
func TestDeclaredSweepRecomputeBounds(t *testing.T) {
	fx := buildFixture(t, 9, 400, 8)
	const slots = 54
	recomputes := func(strategy string, edges []*tree.Edge, declare bool) uint64 {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: slots, Strategy: testStrategy(strategy)})
		if err != nil {
			t.Fatal(err)
		}
		sweepBranches(t, m, fx, edges, declare)
		return m.Stats().Recomputes
	}
	dense, sparse := fx.tr.BranchOrderDFS(), everyNth(fx.tr, 12)
	plainSparse := recomputes("costage", sparse, false)
	for _, strategy := range []string{"cost", "costage"} {
		if got, limit := recomputes(strategy, dense, true), uint64(5*fx.tr.NumInnerCLVs()/2); got > limit {
			t.Errorf("%s: dense declared sweep recomputed %d CLVs, limit %d", strategy, got, limit)
		}
		if got := recomputes(strategy, sparse, true); got > plainSparse {
			t.Errorf("%s: sparse declared sweep recomputed %d CLVs, plain CostAge %d", strategy, got, plainSparse)
		}
	}
}

// recordingStrategy logs what the manager offers and what is evicted.
type recordingStrategy struct {
	Strategy
	offered func(candidates []int)
	victims []int
}

func (r *recordingStrategy) Victim(candidates []int, ctx *EvictionContext) int {
	if r.offered != nil {
		r.offered(candidates)
	}
	v := r.Strategy.Victim(candidates, ctx)
	r.victims = append(r.victims, v)
	return v
}

// A manager that is never told about a sweep must evict exactly as it did
// before sweeps existed: the strategy is offered every unpinned slotted CLV in
// ascending order, and the victim sequences equal the ones recorded from the
// commit before this mechanism (FNV-1a over the low two bytes of each victim;
// the seeded adversary makes the hash sensitive to the candidate order too).
func TestUndeclaredEvictionUnchanged(t *testing.T) {
	fx := buildFixture(t, 123, 60, 12)
	golden := map[string]struct {
		victims int
		hash    uint64
	}{
		"costage": {34076, 0x584625090384887d},
		"random":  {34346, 0xcf61c5787410be18},
	}
	for _, s := range []Strategy{CostAge{}, newSeededRandom(7)} {
		rec := &recordingStrategy{Strategy: s}
		m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 4, Strategy: rec})
		if err != nil {
			t.Fatal(err)
		}
		rec.offered = func(candidates []int) {
			var want []int
			for idx, slot := range m.slotOf {
				if slot != noSlot && m.pins[slot] == 0 {
					want = append(want, idx)
				}
			}
			if len(candidates) != len(want) {
				t.Fatalf("%s: offered %d candidates, %d CLVs are evictable", s.Name(), len(candidates), len(want))
			}
			for i := range want {
				if candidates[i] != want[i] {
					t.Fatalf("%s: candidate %d is CLV %d, want %d", s.Name(), i, candidates[i], want[i])
				}
			}
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 600; i++ {
			a := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
			b := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
			if _, err := m.Acquire(a); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Acquire(b); err != nil {
				t.Fatal(err)
			}
			m.Release(a)
			m.Release(b)
		}
		h := fnv.New64a()
		for _, v := range rec.victims {
			h.Write([]byte{byte(v), byte(v >> 8)})
		}
		want := golden[s.Name()]
		if len(rec.victims) != want.victims || h.Sum64() != want.hash {
			t.Errorf("%s: %d victims hashing to %#x, the previous commit evicted %d hashing to %#x",
				s.Name(), len(rec.victims), h.Sum64(), want.victims, want.hash)
		}
	}
}

// Steady-state acquisition under eviction allocates nothing: the candidate
// buffer and the strategy's context are manager-held.
func TestAcquireUnderEvictionDoesNotAllocate(t *testing.T) {
	fx := buildFixture(t, 35, 80, 16)
	for _, declare := range []bool{false, true} {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 3, Strategy: CostAge{}})
		if err != nil {
			t.Fatal(err)
		}
		order := fx.tr.BranchOrderDFS()
		sweepBranches(t, m, fx, order, declare) // fill the pool
		before := m.Stats().Evictions
		allocs := testing.AllocsPerRun(3, func() {
			if declare {
				m.BeginSweep(order)
			}
			for _, e := range order {
				if declare {
					m.AdvanceSweep(e)
				}
				a, _ := e.Nodes()
				d := fx.tr.DirOf(e, a)
				if _, err := m.Acquire(d); err != nil {
					t.Fatal(err)
				}
				m.Release(d)
			}
			m.EndSweep()
		})
		if m.Stats().Evictions == before {
			t.Fatal("no evictions during the measured sweeps; the test is vacuous")
		}
		if allocs != 0 {
			t.Errorf("declare=%v: a sweep under eviction allocated %.0f times, want 0", declare, allocs)
		}
	}
}

// The budget planner's reservation for the sweep index is what the manager
// and the tree actually hold.
func TestSweepIndexBytesMatchPlan(t *testing.T) {
	fx := buildFixture(t, 36, 50, 8)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots()})
	if err != nil {
		t.Fatal(err)
	}
	so := fx.tr.SweepOrder()
	held := int64(4 * (len(m.sweep.need) + len(m.sweep.nextTarget) + len(so.Pos) + len(so.End) + len(so.Up)))
	if want := memacct.SweepIndexBytes(fx.tr.NumInnerCLVs(), fx.tr.NumBranches()); held != want {
		t.Fatalf("sweep index holds %d bytes, the plan reserves %d", held, want)
	}
}
