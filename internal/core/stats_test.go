package core

import (
	"errors"
	"testing"

	"phylomem/internal/faultinject"
	"phylomem/internal/tree"
)

// TestStatsUnderEviction forces heavy eviction with the minimum slot pool and
// checks the relations the counters must satisfy among themselves.
func TestStatsUnderEviction(t *testing.T) {
	fx := buildFixture(t, 31, 40, 60)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots()})
	if err != nil {
		t.Fatal(err)
	}
	// Two full sweeps over every inner CLV: the tiny pool guarantees
	// evictions and recomputations, the second sweep guarantees some hits
	// too (whatever happens to still be slotted).
	for s := 0; s < 2; s++ {
		sweep(t, m, fx)
	}
	st := m.Stats()
	if st.Recomputes == 0 || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("minimum pool produced no pressure: %+v", st)
	}
	// Evictions only happen to make room for recomputations.
	if st.Evictions > st.Recomputes {
		t.Fatalf("evictions %d > recomputes %d", st.Evictions, st.Recomputes)
	}
	// Every recomputed inner CLV summarizes at least two leaves.
	if st.RecomputeLeafWork < 2*st.Recomputes {
		t.Fatalf("leaf work %d below 2 × %d recomputes", st.RecomputeLeafWork, st.Recomputes)
	}
	// The pin high-water is bounded by the Sethi–Ullman guarantee: at most
	// the slot-pool size, and at least 1 (something was pinned).
	if hw := st.PinHighWater; hw < 1 || hw > m.Slots() {
		t.Fatalf("pin high-water %d outside [1, %d]", hw, m.Slots())
	}
	if st.SpilledEntries != 0 || st.SpillWriteTime != 0 || st.SpillReloadTime != 0 {
		t.Fatalf("spill fields moved without a spill store: %+v", st)
	}
	// Each eviction's search compares between one and every slot's CLV, and
	// the fixture is deterministic, so the count is pinned exactly.
	if st.VictimsExamined < st.Evictions || st.VictimsExamined > st.Evictions*uint64(m.Slots()) {
		t.Fatalf("victims examined %d outside [%d, %d × %d slots]", st.VictimsExamined, st.Evictions, st.Evictions, m.Slots())
	}
	if st.Evictions != 3274 || st.VictimsExamined != 7098 {
		t.Fatalf("evictions %d, victims examined %d; want 3274 and 7098", st.Evictions, st.VictimsExamined)
	}
	// Recomputes are timed with or without a spill store, so the fleet
	// controller can price shrinking a spill-free engine.
	if rs := m.ReclaimStats(); rs.RecomputeNsPerLeaf <= 0 {
		t.Fatalf("spill-free manager that recomputed reports rate %v", rs.RecomputeNsPerLeaf)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledLevelTracksSet follows Stats.SpilledEntries through every path
// that marks or drops a record — spilling evictions and a faulted reload —
// against a direct count of the spilled set.
func TestSpilledLevelTracksSet(t *testing.T) {
	defer faultinject.Reset()
	fx := buildFixture(t, 34, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.MinSlots(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) int {
		t.Helper()
		marked := 0
		for _, b := range m.spilled {
			if b {
				marked++
			}
		}
		if got := m.Stats().SpilledEntries; got != marked {
			t.Fatalf("%s: SpilledEntries = %d, spilled set holds %d", when, got, marked)
		}
		return marked
	}
	sweep(t, m, fx)
	if check("after the spilling sweep") == 0 {
		t.Fatal("sweep at the slot floor spilled nothing")
	}
	st := m.Stats()
	if st.SpillWriteTime <= 0 {
		t.Fatalf("%d spill writes took no time", st.SpillWrites)
	}

	// A faulted reload drops exactly the record it failed to read; the pin
	// the Acquire holds keeps the CLV from being spilled again meanwhile.
	victim := -1
	for idx, b := range m.spilled {
		if b && m.slotOf[idx] == noSlot {
			victim = idx
			break
		}
	}
	if victim < 0 {
		t.Fatal("no unslotted spilled CLV to reload")
	}
	faultinject.Arm(faultinject.PointSpillRead, 0, errors.New("injected read error"))
	d := fx.tr.DirOfCLV(victim)
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	if m.spilled[victim] {
		t.Fatal("unreadable record still marked reloadable")
	}
	check("after the faulted reload")
	m.Release(d)
	if got := m.Stats().SpillErrors; got != 1 {
		t.Fatalf("SpillErrors = %d after one injected fault", got)
	}

	sweep(t, m, fx)
	check("after the reloading sweep")
	if st := m.Stats(); st.SpillReloads == 0 || st.SpillReloadTime <= 0 {
		t.Fatalf("no timed reloads: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedSlotsO1 checks the maintained pinned-slot count against direct
// pin/unpin sequences, including multiple pins on one slot.
func TestPinnedSlotsO1(t *testing.T) {
	fx := buildFixture(t, 33, 16, 40)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 3})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []tree.Dir
	for i := 0; i < 3; i++ {
		dirs = append(dirs, fx.tr.DirOfCLV(i))
	}
	for _, d := range dirs {
		if _, err := m.Acquire(d); err != nil {
			t.Fatal(err)
		}
	}
	// Double-pin the first: pinned-slot count must not change.
	if _, err := m.Acquire(dirs[0]); err != nil {
		t.Fatal(err)
	}
	if got := m.PinnedSlots(); got != 3 {
		t.Fatalf("PinnedSlots = %d, want 3", got)
	}
	m.Release(dirs[0])
	if got := m.PinnedSlots(); got != 3 {
		t.Fatalf("PinnedSlots after dropping duplicate pin = %d, want 3", got)
	}
	for _, d := range dirs {
		m.Release(d)
	}
	if got := m.PinnedSlots(); got != 0 {
		t.Fatalf("PinnedSlots after full unpin = %d, want 0", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
