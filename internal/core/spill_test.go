package core

import (
	"errors"
	"flag"
	"io"
	"math/rand"
	"testing"

	"phylomem/internal/clvstore"
	"phylomem/internal/faultinject"
)

// spillStoreFor creates a file-backed spill store sized for the fixture's
// tree, closed when the test ends.
func spillStoreFor(t testing.TB, fx *fixture) *clvstore.FileStore {
	t.Helper()
	s, err := clvstore.NewFileStore("", fx.tr.NumInnerCLVs(), fx.part.CLVLen(), fx.part.ScaleLen())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sweep acquires every inner CLV once, in index order, releasing each.
func sweep(t testing.TB, m *Manager, fx *fixture) {
	t.Helper()
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		d := fx.tr.DirOfCLV(i)
		if _, err := m.Acquire(d); err != nil {
			t.Fatal(err)
		}
		m.Release(d)
	}
}

// TestSpillMatchesFullSet is the tier's central correctness property: under
// heavy eviction with every policy, reloaded CLVs are bit-identical to the
// fully resident set — the disk roundtrip must be invisible in the data.
func TestSpillMatchesFullSet(t *testing.T) {
	fx := buildFixture(t, 41, 24, 60)
	min := fx.tr.MinSlots()
	for _, policy := range []SpillPolicy{DiscardOnly{}, SpillOnly{}, HybridSpill{}} {
		store := spillStoreFor(t, fx)
		m, err := NewManager(fx.part, fx.tr, Config{
			Slots:       min,
			SpillStore:  store,
			SpillPolicy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 120; trial++ {
			d := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
			op, err := m.Acquire(d)
			if err != nil {
				t.Fatalf("policy %s: Acquire(%d): %v", policy.Name(), d, err)
			}
			if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
				t.Fatalf("policy %s: CLV mismatch at dir %d", policy.Name(), d)
			}
			m.Release(d)
		}
		st := m.Stats()
		switch policy.(type) {
		case DiscardOnly:
			if st.SpillWrites != 0 || st.SpillReloads != 0 {
				t.Fatalf("discard-only did spill I/O: %+v", st)
			}
		case SpillOnly:
			if st.SpillWrites == 0 || st.SpillReloads == 0 {
				t.Fatalf("spill-only under minimum slots did no spill I/O: %+v", st)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("policy %s: %v", policy.Name(), err)
		}
		if got := m.PinnedSlots(); got != 0 {
			t.Fatalf("policy %s: %d slots still pinned", policy.Name(), got)
		}
	}
}

// TestSpillReducesRecomputeWork: with the same access sequence at the slot
// floor, the spill-only tier must do strictly less recomputation leaf work
// than plain discard — reloads replace whole subtree rebuilds.
func TestSpillReducesRecomputeWork(t *testing.T) {
	fx := buildFixture(t, 42, 40, 60)
	min := fx.tr.MinSlots()
	discard, err := NewManager(fx.part, fx.tr, Config{Slots: min})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := NewManager(fx.part, fx.tr, Config{
		Slots:       min,
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sweep(t, discard, fx)
		sweep(t, spill, fx)
	}
	dw := discard.Stats().RecomputeLeafWork
	sw := spill.Stats().RecomputeLeafWork
	if sw >= dw {
		t.Fatalf("spill-only leaf work %d not below discard-only %d", sw, dw)
	}
	if saved := spill.Stats().ReloadLeafWorkSaved; saved == 0 {
		t.Fatal("no reload leaf work recorded despite reloads")
	}
}

// TestSpillWriteFaultFallsBackToDiscard: an injected write failure must
// degrade that eviction to a plain discard — counted, output still correct,
// audits clean.
func TestSpillWriteFaultFallsBackToDiscard(t *testing.T) {
	defer faultinject.Reset()
	fx := buildFixture(t, 44, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.MinSlots(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PointSpillWrite, 2, errors.New("injected disk full"))
	for s := 0; s < 2; s++ {
		for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
			d := fx.tr.DirOfCLV(i)
			op, err := m.Acquire(d)
			if err != nil {
				t.Fatal(err)
			}
			if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
				t.Fatalf("CLV mismatch at dir %d after write fault", d)
			}
			m.Release(d)
		}
	}
	st := m.Stats()
	if st.SpillErrors == 0 {
		t.Fatalf("injected write fault not counted: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillReadFaultFallsBackToRecompute: an injected reload failure must
// drop the record and recompute — output still bit-exact, audits clean.
func TestSpillReadFaultFallsBackToRecompute(t *testing.T) {
	defer faultinject.Reset()
	fx := buildFixture(t, 45, 24, 60)
	m, err := NewManager(fx.part, fx.tr, Config{
		Slots:       fx.tr.MinSlots(),
		SpillStore:  spillStoreFor(t, fx),
		SpillPolicy: SpillOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, m, fx) // populate the spill store under eviction pressure
	if m.Stats().SpilledEntries == 0 {
		t.Fatal("first sweep spilled nothing")
	}
	faultinject.Arm(faultinject.PointSpillRead, 0, errors.New("injected read error"))
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		d := fx.tr.DirOfCLV(i)
		op, err := m.Acquire(d)
		if err != nil {
			t.Fatal(err)
		}
		if !operandsEqual(fx.part, op, fx.full.Operand(d)) {
			t.Fatalf("CLV mismatch at dir %d after read fault", d)
		}
		m.Release(d)
	}
	st := m.Stats()
	if st.SpillErrors == 0 {
		t.Fatalf("injected read fault not counted: %+v", st)
	}
	if st.SpillReloads == 0 {
		t.Fatalf("no successful reloads around the fault: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridPolicyCostModel drives ShouldSpill directly at fixed rates: it
// spills optimistically while either rate is uncalibrated, then exactly
// when reloading the record is cheaper than recomputing the victim's
// subtree. A record is 2^20 bytes; victim 0 covers 1 leaf, victim 1 1,024.
func TestHybridPolicyCostModel(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		victim                int
		recomputeNs, reloadNs float64 // per leaf, per byte
		want                  bool
	}{
		{"uncalibrated", 0, 0, 0, true},
		{"recompute-uncalibrated", 0, 0, 1, true},
		{"reload-uncalibrated", 0, 2000, 0, true},
		// Reload ≈ 1.05 ms against 2 µs of recompute: discard.
		{"recompute-cheaper", 0, 2000, 1, false},
		// Reload ≈ 1.05 ms against ≈ 2.05 ms of recompute: spill.
		{"reload-cheaper", 1, 2000, 1, true},
		// Reload 2^20 ns against exactly 2^20 ns of recompute: not cheaper.
		{"tie", 1, 1024, 1, false},
	} {
		ctx := &SpillContext{Cost: []int{1, 1024}, RecordBytes: 1 << 20,
			RecomputeNsPerLeaf: tc.recomputeNs, ReloadNsPerByte: tc.reloadNs}
		if got := (HybridSpill{}).ShouldSpill(tc.victim, ctx); got != tc.want {
			t.Errorf("%s: ShouldSpill(victim %d) = %v, want %v", tc.name, tc.victim, got, tc.want)
		}
	}
}

func TestSpillPolicyByName(t *testing.T) {
	for _, name := range []string{"discard", "spill", "hybrid"} {
		p := SpillPolicyByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("SpillPolicyByName(%q) = %v", name, p)
		}
	}
	if p := SpillPolicyByName("nope"); p != nil {
		t.Fatalf("unknown policy resolved to %v", p)
	}
}

// TestSpillFlag parses --clv-spill the way the CLIs bind it: the policy rides
// after "=", the bare flag means hybrid and never swallows the next token,
// "=false" keeps the tier off, and an unknown name fails the parse.
func TestSpillFlag(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		policy string // "" = tier off
		rest   int    // positional arguments left over
		bad    bool
	}{
		{nil, "", 0, false},
		{[]string{"--clv-spill"}, "hybrid", 0, false},
		{[]string{"--clv-spill", "--after"}, "hybrid", 0, false},
		{[]string{"--clv-spill=discard"}, "discard", 0, false},
		{[]string{"--clv-spill=spill"}, "spill", 0, false},
		{[]string{"--clv-spill=hybrid"}, "hybrid", 0, false},
		{[]string{"--clv-spill", "discard", "--after"}, "hybrid", 2, false},
		{[]string{"--clv-spill=nope"}, "", 0, true},
		{[]string{"--clv-spill=false"}, "", 0, false},
		{[]string{"--clv-spill", "--clv-spill=false"}, "", 0, false},
	} {
		var policy SpillPolicy
		f := SpillFlag{Policy: &policy}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Var(f, "clv-spill", "")
		fs.Bool("after", false, "")
		err := fs.Parse(tc.args)
		if tc.bad {
			if err == nil {
				t.Errorf("%v: parsed, want an error", tc.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if f.String() != tc.policy || fs.NArg() != tc.rest {
			t.Errorf("%v: policy %q with %d positional, want %q with %d", tc.args, f.String(), fs.NArg(), tc.policy, tc.rest)
		}
	}
}
