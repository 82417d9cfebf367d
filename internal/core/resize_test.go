package core

import (
	"testing"
)

func TestResizeValidation(t *testing.T) {
	fx := buildFixture(t, 61, 20, 60)
	min := fx.tr.MinSlots()
	m, err := NewManager(fx.part, fx.tr, Config{Slots: min + 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Resize(min - 1); err == nil {
		t.Fatal("resize below MinSlots accepted")
	}
	if err := m.Resize(fx.tr.NumInnerCLVs() + 100); err != nil {
		t.Fatal(err)
	}
	if m.Slots() != fx.tr.NumInnerCLVs() {
		t.Fatalf("grow not clamped to inner-CLV count: %d", m.Slots())
	}
	if m.Bytes() != int64(m.Slots())*fx.part.CLVBytes() {
		t.Fatalf("Bytes = %d after grow", m.Bytes())
	}

	// A pinned slot blocks resizing in either direction.
	d := fx.tr.DirOfCLV(0)
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Resize(min); err == nil {
		t.Fatal("resize with pinned slots accepted")
	}
	m.Release(d)
	if err := m.Resize(min); err != nil {
		t.Fatal(err)
	}
	if m.Slots() != min || m.Bytes() != int64(min)*fx.part.CLVBytes() {
		t.Fatalf("shrink to floor: slots %d bytes %d", m.Slots(), m.Bytes())
	}
}

// TestResizeMatchesFullSet is the lever's correctness property: shrinking to
// the floor (relocating or evicting residents) and growing back must leave
// every CLV bit-identical to the fully resident set, with audits clean.
func TestResizeMatchesFullSet(t *testing.T) {
	fx := buildFixture(t, 62, 24, 60)
	min := fx.tr.MinSlots()
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.NumInnerCLVs()})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx) // fully populate the pool
	for _, slots := range []int{min + 2, min, fx.tr.NumInnerCLVs(), min + 1} {
		if err := m.Resize(slots); err != nil {
			t.Fatalf("Resize(%d): %v", slots, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after Resize(%d): %v", slots, err)
		}
		for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
			d := fx.tr.DirOfCLV(i)
			op, err := m.Acquire(d)
			if err != nil {
				t.Fatalf("slots %d: Acquire(%d): %v", slots, d, err)
			}
			if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
				t.Fatalf("slots %d: CLV mismatch at dir %d", slots, d)
			}
			m.Release(d)
		}
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("shrinking a full pool to the floor evicted nothing")
	}
	// The pool ends below its lifetime maximum, which is what the recorded
	// pin high-water must still be audited against.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeShrinkRelocatesFirst: residents stranded in the removed slot
// range must relocate into free surviving slots — not evict — and serve
// bit-identical data from their new slots. The free-low/occupied-high layout
// is staged white-box (unslotting the low slots by hand), since normal
// allocation fills slots bottom-up.
func TestResizeShrinkRelocatesFirst(t *testing.T) {
	fx := buildFixture(t, 63, 20, 60)
	full := fx.tr.NumInnerCLVs()
	m, err := NewManager(fx.part, fx.tr, Config{Slots: full})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx) // every slot occupied
	const freed = 3
	for s := int32(0); s < freed; s++ {
		idx := m.clvOf[s]
		if idx == noCLV {
			t.Fatalf("slot %d empty after full sweep", s)
		}
		m.vacate(idx, s)
	}
	evBefore := m.Stats().Evictions
	if err := m.Resize(full - freed); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Evictions; got != evBefore {
		t.Fatalf("shrink with enough free surviving slots evicted %d CLVs", got-evBefore)
	}
	if got := m.ReclaimStats().ResidentCLVs; got != full-freed {
		t.Fatalf("residents %d after relocation, want %d", got, full-freed)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx) // relocated CLVs must be bit-identical in their new slots
	for i := 0; i < full; i++ {
		d := fx.tr.DirOfCLV(i)
		op, err := m.Acquire(d)
		if err != nil {
			t.Fatal(err)
		}
		if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
			t.Fatalf("CLV mismatch at dir %d after relocation", d)
		}
		m.Release(d)
	}
}

// TestResizeShrinkSpills: with a spill tier attached, the CLVs a shrink
// pushes out become reloadable records rather than pure recompute debt.
func TestResizeShrinkSpills(t *testing.T) {
	fx := buildFixture(t, 64, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.NumInnerCLVs(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx)
	if err := m.Resize(fx.tr.MinSlots()); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().SpillWrites; got == 0 {
		t.Fatal("shrink of a full pool wrote no spill records")
	}
	if m.Stats().SpilledEntries == 0 {
		t.Fatal("no reloadable records after spilling shrink")
	}
	sweep(t, m, fx) // reload path must serve bit-identical data
	if m.Stats().SpillReloads == 0 {
		t.Fatal("post-shrink sweep reloaded nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemoteAll: forced demotion empties the pool, every record is
// reloadable, and the next sweep serves bit-identical CLVs from disk.
func TestDemoteAll(t *testing.T) {
	fx := buildFixture(t, 65, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.NumInnerCLVs(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: DiscardOnly{}, // demotion must bypass the per-eviction policy
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx)
	resident := m.ReclaimStats().ResidentCLVs
	if resident == 0 {
		t.Fatal("setup: nothing resident")
	}

	d := fx.tr.DirOfCLV(0)
	if _, err := m.Acquire(d); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DemoteAll(); err == nil {
		t.Fatal("DemoteAll with pinned slots accepted")
	}
	m.Release(d)

	reloadable, err := m.DemoteAll()
	if err != nil {
		t.Fatal(err)
	}
	if reloadable != resident {
		t.Fatalf("demoted %d reloadable of %d resident", reloadable, resident)
	}
	if got := m.ReclaimStats().ResidentCLVs; got != 0 {
		t.Fatalf("%d CLVs still resident after DemoteAll", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		dd := fx.tr.DirOfCLV(i)
		op, err := m.Acquire(dd)
		if err != nil {
			t.Fatal(err)
		}
		if !operandsEqual(fx.part, op, fx.full.Operand(dd)) {
			t.Fatalf("CLV mismatch at dir %d after demotion", dd)
		}
		m.Release(dd)
	}
	if m.Stats().SpillReloads == 0 {
		t.Fatal("post-demotion sweep reloaded nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDemoteAllWithoutStore: without a spill tier, demotion degrades to a
// full discard — nothing reloadable, everything recomputable.
func TestDemoteAllWithoutStore(t *testing.T) {
	fx := buildFixture(t, 66, 20, 60)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.NumInnerCLVs()})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx)
	reloadable, err := m.DemoteAll()
	if err != nil {
		t.Fatal(err)
	}
	if reloadable != 0 {
		t.Fatalf("storeless demotion claims %d reloadable records", reloadable)
	}
	sweep(t, m, fx) // recompute path must still be bit-exact
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimStats(t *testing.T) {
	fx := buildFixture(t, 67, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.MinSlots(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.ReclaimStats()
	if rs.Slots != fx.tr.MinSlots() || rs.MinSlots != fx.tr.MinSlots() {
		t.Fatalf("slots %d / min %d", rs.Slots, rs.MinSlots)
	}
	if rs.SlotBytes != fx.part.CLVBytes() {
		t.Fatalf("SlotBytes = %d, want %d", rs.SlotBytes, fx.part.CLVBytes())
	}
	if !rs.SpillEnabled {
		t.Fatal("SpillEnabled false with a store attached")
	}
	if rs.ResidentCLVs != 0 || rs.ResidentLeafWork != 0 {
		t.Fatalf("fresh manager reports residents: %+v", rs)
	}
	if rs.RecomputeNsPerLeaf != 0 || rs.ReloadNsPerByte != 0 {
		t.Fatalf("uncalibrated rates nonzero: %+v", rs)
	}

	// Two sweeps at the floor force recomputes and reloads; both rates must
	// calibrate, and the resident summary must reflect slotted CLVs.
	sweep(t, m, fx)
	sweep(t, m, fx)
	rs = m.ReclaimStats()
	if rs.ResidentCLVs == 0 || rs.ResidentLeafWork < int64(rs.ResidentCLVs) {
		t.Fatalf("resident summary after sweeps: %+v", rs)
	}
	if rs.RecomputeNsPerLeaf <= 0 {
		t.Fatalf("recompute rate uncalibrated after sweeps: %+v", rs)
	}
	if rs.ReloadNsPerByte <= 0 {
		t.Fatalf("reload rate uncalibrated after sweeps: %+v", rs)
	}
}
