package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseNewick(s)
	if err != nil {
		t.Fatalf("ParseNewick(%q): %v", s, err)
	}
	return tr
}

func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	n := tr.NumLeaves()
	if inner := len(tr.Nodes) - n; inner != n-2 {
		t.Fatalf("inner = %d, want %d", inner, n-2)
	}
	if tr.NumBranches() != 2*n-3 {
		t.Fatalf("branches = %d, want %d", tr.NumBranches(), 2*n-3)
	}
	if tr.NumInnerCLVs() != 3*(n-2) {
		t.Fatalf("inner CLVs = %d, want %d", tr.NumInnerCLVs(), 3*(n-2))
	}
	// CLV index maps are mutual inverses.
	for i := 0; i < tr.NumInnerCLVs(); i++ {
		d := tr.DirOfCLV(i)
		if tr.CLVIndex(d) != i {
			t.Fatalf("CLVIndex(DirOfCLV(%d)) = %d", i, tr.CLVIndex(d))
		}
		if tr.Tail(d).IsLeaf() {
			t.Fatalf("inner CLV %d has leaf tail", i)
		}
	}
	for d := Dir(0); d < Dir(2*tr.NumBranches()); d++ {
		if tr.Tail(d).IsLeaf() != (tr.CLVIndex(d) == -1) {
			t.Fatalf("leaf/CLV index mismatch at dir %d", d)
		}
		if tr.Tail(tr.Reverse(d)) != tr.EdgeOf(d).Other(tr.Tail(d)) {
			t.Fatalf("Reverse broken at dir %d", d)
		}
	}
}

func TestParseUnrootedTriple(t *testing.T) {
	tr := mustParse(t, "(A:0.1,B:0.2,C:0.3);")
	if tr.NumLeaves() != 3 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
	checkInvariants(t, tr)
	if tr.LeafByName("B") == nil || tr.LeafByName("nope") != nil {
		t.Fatal("LeafByName broken")
	}
	if got := tr.TotalBranchLength(); got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Fatalf("total branch length = %g", got)
	}
}

func TestParseRootedIsUnrooted(t *testing.T) {
	tr := mustParse(t, "((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.15);")
	if tr.NumLeaves() != 4 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
	checkInvariants(t, tr)
	// Root edges merged: 0.05 + 0.15 = 0.2 appears as one branch.
	found := false
	for _, e := range tr.Edges {
		a, b := e.Nodes()
		if !a.IsLeaf() && !b.IsLeaf() {
			if e.Length != 0.2 {
				t.Fatalf("merged central branch length = %g, want 0.2", e.Length)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no inner-inner branch found after unrooting")
	}
}

func TestParseNested(t *testing.T) {
	tr := mustParse(t, "(((A:1,B:1):1,C:1):1,D:1,(E:1,(F:1,G:1):1):1);")
	if tr.NumLeaves() != 7 {
		t.Fatalf("leaves = %d", tr.NumLeaves())
	}
	checkInvariants(t, tr)
}

func TestParseDefaultsAndComments(t *testing.T) {
	tr := mustParse(t, "(A,B[comment],C:0.5);")
	for _, e := range tr.Edges {
		if e.Length != DefaultBranchLength && e.Length != 0.5 {
			t.Fatalf("unexpected branch length %g", e.Length)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "A;", "(A,B);", "(A,B,C,D);", "((A,B,C):1,D:1);",
		"(A,B,C", "(A,,C);", "(A,B,C)x(;",
	} {
		if _, err := ParseNewick(bad); err == nil {
			t.Errorf("ParseNewick(%q) succeeded, want error", bad)
		}
	}
}

func TestNewickRoundTrip(t *testing.T) {
	in := "(((A:1,B:2):3,C:4):5,D:6,E:7);"
	tr := mustParse(t, in)
	out := tr.WriteNewick()
	tr2 := mustParse(t, out)
	if tr2.NumLeaves() != tr.NumLeaves() || tr2.NumBranches() != tr.NumBranches() {
		t.Fatalf("round trip changed shape: %q -> %q", in, out)
	}
	if tr2.TotalBranchLength() != tr.TotalBranchLength() {
		t.Fatalf("round trip changed total length: %g vs %g", tr2.TotalBranchLength(), tr.TotalBranchLength())
	}
}

func TestChildrenConsistency(t *testing.T) {
	tr := mustParse(t, "((A:1,B:1):1,C:1,(D:1,E:1):1);")
	for i := 0; i < tr.NumInnerCLVs(); i++ {
		d := tr.DirOfCLV(i)
		a, b := tr.Children(d)
		u := tr.Tail(d)
		if tr.EdgeOf(a).Other(tr.Tail(a)) != u || tr.EdgeOf(b).Other(tr.Tail(b)) != u {
			t.Fatalf("children of dir %d do not point at tail", d)
		}
		if tr.EdgeOf(a) == tr.EdgeOf(d) || tr.EdgeOf(b) == tr.EdgeOf(d) || tr.EdgeOf(a) == tr.EdgeOf(b) {
			t.Fatalf("children edges overlap parent at dir %d", d)
		}
	}
}

func TestSubtreeLeafCounts(t *testing.T) {
	tr := mustParse(t, "((A:1,B:1):1,C:1,(D:1,E:1):1);")
	counts := tr.SubtreeLeafCounts()
	n := tr.NumLeaves()
	for d := Dir(0); d < Dir(2*tr.NumBranches()); d++ {
		if counts[d]+counts[tr.Reverse(d)] != n {
			t.Fatalf("counts at dir %d: %d + %d != %d", d, counts[d], counts[tr.Reverse(d)], n)
		}
		if tr.Tail(d).IsLeaf() && counts[d] != 1 {
			t.Fatalf("leaf-tail count = %d", counts[d])
		}
	}
}

func TestSubtreeLeafCountsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		tr, err := Random(n, 0.1, rng)
		if err != nil {
			return false
		}
		counts := tr.SubtreeLeafCounts()
		for i := 0; i < tr.NumInnerCLVs(); i++ {
			d := tr.DirOfCLV(i)
			a, b := tr.Children(d)
			if counts[d] != counts[a]+counts[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinSlotsCaterpillarConstant(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		tr, err := Caterpillar(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
		if got := tr.MinSlots(); got > 3 {
			t.Fatalf("caterpillar n=%d MinSlots = %d, want <= 3", n, got)
		}
	}
}

func TestMinSlotsBalancedLogarithmic(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		tr, err := Balanced(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
		got := tr.MinSlots()
		bound := LogNBound(n)
		if got > bound {
			t.Fatalf("balanced n=%d MinSlots = %d exceeds log bound %d", n, got, bound)
		}
		// Balanced trees should be close to the bound, not trivially small.
		if got < bound-2 {
			t.Fatalf("balanced n=%d MinSlots = %d suspiciously below bound %d", n, got, bound)
		}
	}
}

// The paper's key claim: log2(n)+2 slots always suffice, for any topology.
func TestMinSlotsWithinLogBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(120)
		tr, err := Random(n, 0.1, rng)
		if err != nil {
			return false
		}
		return tr.MinSlots() <= LogNBound(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotRequirementsRange(t *testing.T) {
	tr := mustParse(t, "((A:1,B:1):1,C:1,(D:1,E:1):1);")
	su := tr.SlotRequirements()
	for i := 0; i < tr.NumInnerCLVs(); i++ {
		d := tr.DirOfCLV(i)
		if got := int(su[d]); got < 1 || got > tr.MinSlots() {
			t.Fatalf("SlotRequirements()[%d] = %d out of range", d, got)
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := Random(50, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 50 {
		t.Fatalf("Random leaves = %d", tr.NumLeaves())
	}
	checkInvariants(t, tr)

	if _, err := Random(2, 0.1, rng); err == nil {
		t.Error("Random(2) accepted")
	}
	if _, err := Balanced(6, 0.1); err == nil {
		t.Error("Balanced(6) accepted")
	}
	if _, err := Caterpillar(2, 0.1); err == nil {
		t.Error("Caterpillar(2) accepted")
	}

	cat, err := Caterpillar(5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, cat)
	if cat.NumLeaves() != 5 {
		t.Fatalf("Caterpillar leaves = %d", cat.NumLeaves())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := Random(30, 0.1, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(30, 0.1, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if a.WriteNewick() != b.WriteNewick() {
		t.Fatal("Random is not deterministic for a fixed seed")
	}
}

// checkSweepOrder verifies the canonical sweep's contract: every edge exactly
// once, leaf 0's edge first, each edge's subtree on the contiguous positions
// [Pos, End] directly after it, the lighter child subtree before the heavier.
func checkSweepOrder(t *testing.T, tr *Tree) {
	t.Helper()
	so := tr.SweepOrder()
	if len(so.Edges) != tr.NumBranches() {
		t.Fatalf("sweep order covers %d of %d branches", len(so.Edges), tr.NumBranches())
	}
	seen := make([]bool, tr.NumBranches())
	for p, e := range so.Edges {
		if seen[e.ID] {
			t.Fatalf("branch %d repeated", e.ID)
		}
		seen[e.ID] = true
		if int(so.Pos[e.ID]) != p {
			t.Fatalf("Pos[%d] = %d, but the branch is at position %d", e.ID, so.Pos[e.ID], p)
		}
	}
	if so.Edges[0] != tr.Nodes[0].Edges[0] {
		t.Fatal("sweep does not start at leaf 0's edge")
	}
	if root := so.Edges[0].ID; int(so.End[root]) != tr.NumBranches()-1 {
		t.Fatalf("root range ends at %d, want %d", so.End[root], tr.NumBranches()-1)
	}
	leaves := tr.SubtreeLeafCounts()
	for _, e := range so.Edges {
		up := so.Up[e.ID]
		if tr.EdgeOf(up) != e {
			t.Fatalf("Up[%d] is a direction of branch %d", e.ID, tr.EdgeOf(up).ID)
		}
		pos, end := so.Pos[e.ID], so.End[e.ID]
		if tr.Tail(up).IsLeaf() {
			if end != pos {
				t.Fatalf("leaf branch %d has range [%d,%d]", e.ID, pos, end)
			}
			continue
		}
		a, b := tr.Children(up)
		first, second := tr.EdgeOf(a), tr.EdgeOf(b)
		if so.Pos[second.ID] < so.Pos[first.ID] {
			a, b = b, a
			first, second = second, first
		}
		if so.Pos[first.ID] != pos+1 || so.Pos[second.ID] != so.End[first.ID]+1 || so.End[second.ID] != end {
			t.Fatalf("branch %d [%d,%d]: child ranges [%d,%d] and [%d,%d] do not tile it", e.ID, pos, end,
				so.Pos[first.ID], so.End[first.ID], so.Pos[second.ID], so.End[second.ID])
		}
		if leaves[a] > leaves[b] {
			t.Fatalf("branch %d: the %d-leaf child subtree is swept before the %d-leaf one", e.ID, leaves[a], leaves[b])
		}
	}
}

func TestSweepOrder(t *testing.T) {
	random, err := Random(40, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := Balanced(64, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// As deep as it has leaves: the walk must not recurse.
	caterpillar, err := Caterpillar(5000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := Random(3, 0.1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{random, balanced, caterpillar, star} {
		checkSweepOrder(t, tr)
		order := tr.BranchOrderDFS()
		for i, e := range tr.SweepOrder().Edges {
			if order[i] != e {
				t.Fatal("BranchOrderDFS is not the sweep order")
			}
		}
	}
}

func TestLogNBound(t *testing.T) {
	cases := map[int]int{4: 4, 8: 5, 512: 11, 20000: 17}
	for n, want := range cases {
		if got := LogNBound(n); got != want {
			t.Errorf("LogNBound(%d) = %d, want %d", n, got, want)
		}
	}
}
