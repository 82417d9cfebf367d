package placement

import (
	"bytes"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
)

// TestChildAccountantLifecycle: an engine built under a parent accountant
// mirrors its whole footprint into the parent's tenant category, and its
// Close drain leaves both levels at zero — the two-level audit the fleet
// shutdown sequence relies on.
func TestChildAccountantLifecycle(t *testing.T) {
	fx := newFixture(t, 71, 16, 60, 12)
	parent := memacct.NewAccountant()
	cfg := DefaultConfig()
	cfg.ParentAccountant = parent
	cfg.ParentCategory = "tenant:a"
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parent.Breakdown()["tenant:a"], eng.Accountant().Current(); got != want {
		t.Fatalf("parent mirror %d != engine current %d", got, want)
	}
	if parent.Current() == 0 {
		t.Fatal("engine footprint invisible at the fleet level")
	}
	if _, err := eng.Place(fx.queries); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := parent.AssertDrained(); err != nil {
		t.Fatalf("fleet level not drained after engine Close: %v", err)
	}
}

// TestResizeDemoteByteIdentity: the same queries must produce a
// byte-identical jplace document from an untouched engine, a slot-shrunk
// engine, and a fully demoted engine — the reclaim levers change recompute
// and reload work, never results.
func TestResizeDemoteByteIdentity(t *testing.T) {
	fx := newFixture(t, 72, 24, 60, 20)
	cfg := DefaultConfig()
	cfg.ForceAMC = true
	cfg.SpillPolicy = core.SpillOnly{}

	baseline, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	res, err := baseline.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	want := renderJplace(t, fx, cfg, res.Queries)

	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Place(fx.queries); err != nil {
		t.Fatal(err) // warm the pool so the shrink has residents to move
	}

	if err := eng.Resize(1); err != nil { // clamps up to the engine floor
		t.Fatal(err)
	}
	if got := eng.Stats().Slots; got != fx.tr.MinSlots()+1 {
		t.Fatalf("Resize(1) left %d slots, want floor %d", got, fx.tr.MinSlots()+1)
	}
	res, err = eng.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJplace(t, fx, cfg, res.Queries), want) {
		t.Fatal("jplace differs after slot shrink")
	}

	if err := eng.Resize(fx.tr.NumInnerCLVs()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place(fx.queries); err != nil {
		t.Fatal(err) // refill the grown pool
	}
	reloadable, err := eng.Demote()
	if err != nil {
		t.Fatal(err)
	}
	if reloadable == 0 {
		t.Fatal("demotion with a spill tier left nothing reloadable")
	}
	if got := eng.Stats().Slots; got != fx.tr.MinSlots()+1 {
		t.Fatalf("Demote left %d slots, want floor %d", got, fx.tr.MinSlots()+1)
	}
	res, err = eng.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJplace(t, fx, cfg, res.Queries), want) {
		t.Fatal("jplace differs after demotion")
	}
	if eng.Stats().CLVStats.SpillReloads == 0 {
		t.Fatal("post-demotion placement reloaded nothing from the spill tier")
	}

	if rs := eng.Reclaim(); !rs.SpillEnabled || rs.Slots != fx.tr.MinSlots()+1 {
		t.Fatalf("Reclaim after demote = %+v", rs)
	}
}

// TestReclaimLeversFullResident: a reference-mode engine's slot pool holds
// every CLV, and the levers work on it like on any other engine. Reclaim
// reports the filled pool with a calibrated recompute rate; Resize frees the
// removed slots net of the AMC block buffers the engine accounts from then
// on; Demote takes it to its floor; and every placement stays byte-identical.
func TestReclaimLeversFullResident(t *testing.T) {
	fx := newFixture(t, 73, 12, 40, 4)
	cfg := DefaultConfig()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	place := func() []byte {
		t.Helper()
		res, err := eng.Place(fx.queries)
		if err != nil {
			t.Fatal(err)
		}
		return renderJplace(t, fx, cfg, res.Queries)
	}
	want := place()
	rs := eng.Reclaim()
	if nclv := fx.tr.NumInnerCLVs(); rs.Slots != nclv || rs.ResidentCLVs != nclv || rs.RecomputeNsPerLeaf <= 0 {
		t.Fatalf("Reclaim on a reference engine = %+v; want %d resident slots and a calibrated rate", rs, nclv)
	}
	acct := eng.Accountant()
	before := acct.Current()
	if err := eng.Resize(rs.Slots / 2); err != nil {
		t.Fatal(err)
	}
	buf := 2 * int64(eng.plan.BlockSize) * memacct.CLVsPerBufferedBranch * fx.part.CLVBytes()
	if eng.mgr.Filled() || acct.Breakdown()["branch-buffers"] != buf {
		t.Fatalf("after the shrink: filled %v, branch-buffers %d bytes, want %d", eng.mgr.Filled(), acct.Breakdown()["branch-buffers"], buf)
	}
	if freed, wantFreed := before-acct.Current(), int64(rs.Slots-rs.Slots/2)*rs.SlotBytes-buf; freed != wantFreed {
		t.Fatalf("shrink freed %d bytes, want %d", freed, wantFreed)
	}
	if !bytes.Equal(place(), want) {
		t.Fatal("jplace differs after the shrink")
	}
	if _, err := eng.Demote(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Slots; got != fx.tr.MinSlots()+1 {
		t.Fatalf("Demote left %d slots, want floor %d", got, fx.tr.MinSlots()+1)
	}
	if !bytes.Equal(place(), want) {
		t.Fatal("jplace differs after demotion")
	}
}

// TestPlanForMatchesEngine: the pre-admission estimate must be exactly the
// plan a constructed engine runs under, for both execution modes.
func TestPlanForMatchesEngine(t *testing.T) {
	fx := newFixture(t, 74, 16, 60, 4)
	for _, cfg := range []Config{DefaultConfig(), func() Config {
		c := DefaultConfig()
		c.ForceAMC = true
		c.DisableLookup = true
		return c
	}()} {
		plan, err := PlanFor(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Plan(); got != plan {
			t.Fatalf("PlanFor %+v != engine plan %+v", plan, got)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanForTotalIsSumOfParts: Plan.TotalBytes is what admission reserves
// for an engine, so it must stay the sum of the parts the engine allocates
// after PlanFor's ForceAMC and DisableLookup overrides, in every regime.
func TestPlanForTotalIsSumOfParts(t *testing.T) {
	fx := newFixture(t, 75, 60, 60, 4)
	pc := PlanConfigFor(fx.part, fx.tr, DefaultConfig())
	for _, tc := range []struct {
		name   string
		maxmem int64
		force  bool
		noLkp  bool
		amc    bool
	}{
		{name: "reference"},
		{name: "amc", maxmem: memacct.LookupFloorBytes(pc), amc: true},
		{name: "amc-floor", maxmem: memacct.MinFeasibleBytes(pc), amc: true},
		{name: "force-amc", force: true, amc: true},
		{name: "no-lookup", noLkp: true},
		{name: "amc-no-lookup", maxmem: memacct.LookupFloorBytes(pc), noLkp: true, amc: true},
	} {
		cfg := DefaultConfig()
		cfg.MaxMem, cfg.ForceAMC, cfg.DisableLookup = tc.maxmem, tc.force, tc.noLkp
		p, err := PlanFor(fx.part, fx.tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.AMC != tc.amc || tc.noLkp && p.LookupBytes != 0 {
			t.Fatalf("%s: planned AMC=%v lookup %d bytes", tc.name, p.AMC, p.LookupBytes)
		}
		if sum := p.FixedBytes + p.ChunkBytes + p.LookupBytes + p.SlotsBytes + p.BranchBufBytes; p.TotalBytes != sum {
			t.Errorf("%s: TotalBytes %d, parts sum to %d", tc.name, p.TotalBytes, sum)
		}
	}
}
