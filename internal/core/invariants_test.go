package core

import (
	"errors"
	"fmt"
	"testing"

	"phylomem/internal/faultinject"
)

// TestCheckInvariantsClean verifies that a manager stays audit-clean through
// a working acquire/release sequence.
func TestCheckInvariantsClean(t *testing.T) {
	fx := buildFixture(t, 60, 16, 40)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("fresh manager fails audit: %v", err)
	}
	for i := 0; i < 4 && i < fx.tr.NumInnerCLVs(); i++ {
		d := fx.tr.DirOfCLV(i)
		if _, err := m.Acquire(d); err != nil {
			t.Fatal(err)
		}
		m.Release(d)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("audit fails after acquire/release of CLV %d: %v", i, err)
		}
	}
	if p := m.PinnedSlots(); p != 0 {
		t.Fatalf("%d slots pinned after releases", p)
	}
}

// TestCheckInvariantsDetectsCorruption corrupts the slot maps directly and
// checks the audit reports each class of violation with ErrInvariant.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	fx := buildFixture(t, 61, 16, 40)
	newM := func() *Manager {
		m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 2})
		if err != nil {
			t.Fatal(err)
		}
		// Materialize something so the maps are non-trivial.
		d := fx.tr.DirOfCLV(0)
		if _, err := m.Acquire(d); err != nil {
			t.Fatal(err)
		}
		m.Release(d)
		return m
	}
	corruptions := []struct {
		name    string
		corrupt func(m *Manager)
	}{
		{"slotOf out of range", func(m *Manager) {
			for i := range m.slotOf {
				if m.slotOf[i] != noSlot {
					m.slotOf[i] = int32(m.slots) + 7
					return
				}
			}
			t.Fatal("no slotted CLV to corrupt")
		}},
		{"broken bijection", func(m *Manager) {
			for s := range m.clvOf {
				if m.clvOf[s] != noCLV {
					m.clvOf[s] = noCLV
					return
				}
			}
			t.Fatal("no occupied slot to corrupt")
		}},
		{"negative pin count", func(m *Manager) {
			m.pins[0] = -1
		}},
		{"pinned empty slot", func(m *Manager) {
			// Consistently vacate an unpinned slot first (materializing may
			// have filled every slot), then give the empty slot a pin.
			for s := range m.clvOf {
				if m.clvOf[s] != noCLV && m.pins[s] == 0 {
					m.slotOf[m.clvOf[s]] = noSlot
					m.clvOf[s] = noCLV
					m.pins[s] = 1
					return
				}
			}
			t.Fatal("no unpinned occupied slot to vacate")
		}},
		{"pin high-water above the lifetime pool maximum", func(m *Manager) {
			m.stats.PinHighWater = m.maxSlots + 1
		}},
		{"spilled level without a spilled set", func(m *Manager) {
			m.stats.SpilledEntries = 1
		}},
	}
	for _, c := range corruptions {
		m := newM()
		c.corrupt(m)
		err := m.CheckInvariants()
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("%s: audit returned %v, want ErrInvariant", c.name, err)
		}
	}
}

// TestAllocSlotFaultInjection arms the manager's slot-allocation fault point
// and checks the injected failure surfaces as ErrNoSlots from Acquire,
// leaving the maps audit-clean with nothing pinned.
func TestAllocSlotFaultInjection(t *testing.T) {
	fx := buildFixture(t, 62, 16, 40)
	m, err := NewManager(fx.part, fx.tr, Config{Slots: fx.tr.MinSlots() + 2})
	if err != nil {
		t.Fatal(err)
	}
	injected := fmt.Errorf("injected slot failure")
	faultinject.Arm(faultinject.PointAllocSlot, 0, injected)
	defer faultinject.Reset()
	// An inner CLV's direction: leaf tails resolve to tip codes and would
	// never reach the slot allocator.
	d := fx.tr.DirOfCLV(0)
	_, err = m.Acquire(d)
	if !errors.Is(err, ErrNoSlots) || !errors.Is(err, injected) {
		t.Fatalf("Acquire = %v, want injected ErrNoSlots", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("audit fails after injected allocation failure: %v", err)
	}
	if p := m.PinnedSlots(); p != 0 {
		t.Fatalf("%d slots pinned after failed Acquire", p)
	}
	// The point is one-shot: the same acquire succeeds afterwards.
	if _, err := m.Acquire(d); err != nil {
		t.Fatalf("Acquire after disarm: %v", err)
	}
	m.Release(d)
}
