package memacct

import (
	"errors"
	"sync"
	"testing"
)

// TestChildMirrorsIntoParent checks the basic hierarchy contract: a child's
// allocations appear in the parent under the child's category, frees drain
// both levels, and each level keeps its own peak.
func TestChildMirrorsIntoParent(t *testing.T) {
	parent := NewAccountant()
	child := parent.NewChild("tenant:a")

	if got := parent.Breakdown()["tenant:a"]; got != 0 {
		t.Fatalf("fresh child: parent category = %d, want 0", got)
	}
	if _, ok := parent.PeakBreakdown()["tenant:a"]; !ok {
		t.Fatal("fresh child: category not seeded in parent peak breakdown")
	}

	child.Alloc("clv-slots", 100)
	child.Alloc("lookup-table", 50)
	if got := child.Current(); got != 150 {
		t.Fatalf("child current = %d, want 150", got)
	}
	if got := parent.Breakdown()["tenant:a"]; got != 150 {
		t.Fatalf("parent category = %d, want 150", got)
	}
	if got := parent.Current(); got != 150 {
		t.Fatalf("parent current = %d, want 150", got)
	}

	child.Free("clv-slots", 100)
	child.Free("lookup-table", 50)
	if err := child.AssertDrained(); err != nil {
		t.Fatalf("child drain: %v", err)
	}
	if err := parent.AssertDrained(); err != nil {
		t.Fatalf("parent drain: %v", err)
	}
	if parent.Peak() != 150 || child.Peak() != 150 {
		t.Fatalf("peaks = parent %d / child %d, want 150/150", parent.Peak(), child.Peak())
	}
}

// TestChildTryAllocParentRefusal checks cross-tenant backpressure: a request
// the child's own budget admits is refused when the parent has no headroom,
// and the refusal leaves no residue at either level.
func TestChildTryAllocParentRefusal(t *testing.T) {
	parent := NewAccountant()
	parent.SetLimit(100)
	a := parent.NewChild("tenant:a")
	b := parent.NewChild("tenant:b")

	if !a.TryAlloc("inflight", 80) {
		t.Fatal("first tenant refused with empty fleet")
	}
	// Tenant b has no limit of its own, but the fleet is nearly full.
	if b.TryAlloc("inflight", 30) {
		t.Fatal("second tenant admitted past the fleet limit")
	}
	if got := b.Current(); got != 0 {
		t.Fatalf("refused TryAlloc left %d bytes on the child", got)
	}
	if got := parent.Breakdown()["tenant:b"]; got != 0 {
		t.Fatalf("refused TryAlloc left %d bytes on the parent", got)
	}
	if !b.TryAlloc("inflight", 20) {
		t.Fatal("fitting request refused")
	}
	a.Free("inflight", 80)
	b.Free("inflight", 20)
	if err := parent.AssertDrained(); err != nil {
		t.Fatalf("parent drain: %v", err)
	}
}

// TestChildTryAllocChildRefusal checks that a child-level refusal never
// touches the parent.
func TestChildTryAllocChildRefusal(t *testing.T) {
	parent := NewAccountant()
	child := parent.NewChild("tenant:a")
	child.SetLimit(10)
	if child.TryAlloc("inflight", 11) {
		t.Fatal("admitted past the child limit")
	}
	if got := parent.Current(); got != 0 {
		t.Fatalf("child refusal leaked %d bytes to the parent", got)
	}
}

// TestChildHeadroom checks Headroom is the minimum both levels would admit.
func TestChildHeadroom(t *testing.T) {
	parent := NewAccountant()
	parent.SetLimit(100)
	child := parent.NewChild("tenant:a")

	if got := child.Headroom(); got != 100 {
		t.Fatalf("unlimited child under 100-byte fleet: headroom %d, want 100", got)
	}
	child.SetLimit(40)
	if got := child.Headroom(); got != 40 {
		t.Fatalf("child limit binds: headroom %d, want 40", got)
	}
	sibling := parent.NewChild("tenant:b")
	sibling.Alloc("x", 90)
	if got := child.Headroom(); got != 10 {
		t.Fatalf("fleet pressure from sibling: headroom %d, want 10", got)
	}
	sibling.Free("x", 90)
}

// TestChildAllocArmsParentOvercommit checks fleet-level sticky detection: an
// unconditional child Alloc that pushes the fleet past its limit arms the
// parent's overcommit error, not the child's.
func TestChildAllocArmsParentOvercommit(t *testing.T) {
	parent := NewAccountant()
	parent.SetLimit(50)
	child := parent.NewChild("tenant:a")
	child.Alloc("clv-slots", 60)
	if err := child.Err(); err != nil {
		t.Fatalf("child sticky error: %v (child has no limit)", err)
	}
	if err := parent.Err(); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("parent sticky error = %v, want ErrOvercommit", err)
	}
	child.Free("clv-slots", 60)
}

// TestChildLeakVisibleAtBothLevels checks the two-level drain audit: a leak
// in one tenant fails that tenant's audit and the fleet's, naming the tenant.
func TestChildLeakVisibleAtBothLevels(t *testing.T) {
	parent := NewAccountant()
	child := parent.NewChild("tenant:leaky")
	child.Alloc("chunk-queries", 7)
	if err := child.AssertDrained(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("child audit = %v, want ErrNotDrained", err)
	}
	if err := parent.AssertDrained(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("parent audit = %v, want ErrNotDrained", err)
	}
}

// TestHierarchyConcurrent hammers two children of one limited parent from
// many goroutines; the race detector guards the lock ordering and the final
// state must be fully drained.
func TestHierarchyConcurrent(t *testing.T) {
	parent := NewAccountant()
	parent.SetLimit(1 << 20)
	a := parent.NewChild("tenant:a")
	b := parent.NewChild("tenant:b")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acct := a
			if g%2 == 1 {
				acct = b
			}
			for i := 0; i < 200; i++ {
				if acct.TryAlloc("inflight", 512) {
					acct.Free("inflight", 512)
				}
				acct.Alloc("work", 64)
				acct.Free("work", 64)
				_ = acct.Headroom()
			}
		}(g)
	}
	wg.Wait()
	if err := parent.AssertDrained(); err != nil {
		t.Fatalf("parent drain after hammer: %v", err)
	}
	if err := a.AssertDrained(); err != nil {
		t.Fatalf("child drain after hammer: %v", err)
	}
}
