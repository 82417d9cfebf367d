package memacct

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"phylomem/internal/faultinject"
)

func TestAccountantBasics(t *testing.T) {
	a := NewAccountant()
	a.Alloc("clv", 1000)
	a.Alloc("lookup", 500)
	if a.Current() != 1500 || a.Peak() != 1500 {
		t.Fatalf("current/peak = %d/%d", a.Current(), a.Peak())
	}
	a.Free("clv", 400)
	if a.Current() != 1100 {
		t.Fatalf("current = %d", a.Current())
	}
	if a.Peak() != 1500 {
		t.Fatalf("peak dropped: %d", a.Peak())
	}
	a.Alloc("clv", 1000)
	if a.Peak() != 2100 {
		t.Fatalf("peak = %d, want 2100", a.Peak())
	}
	bd := a.Breakdown()
	if bd["clv"] != 1600 || bd["lookup"] != 500 {
		t.Fatalf("breakdown = %v", bd)
	}
}

func TestAccountantOverFreePanics(t *testing.T) {
	a := NewAccountant()
	a.Alloc("x", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	a.Free("x", 11)
}

func TestAccountantString(t *testing.T) {
	a := NewAccountant()
	a.Alloc("clv", 2<<20)
	s := a.String()
	if !strings.Contains(s, "clv") || !strings.Contains(s, "MiB") {
		t.Fatalf("String() = %q", s)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.00 KiB",
		3 << 20:       "3.00 MiB",
		5 << 30:       "5.00 GiB",
		1<<30 + 1<<29: "1.50 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"123":   123,
		"4G":    4 << 30,
		"4GiB":  4 << 30,
		"4gib":  4 << 30,
		"4g":    4 << 30,
		"4GB":   4 << 30,
		"512M":  512 << 20,
		"512mb": 512 << 20,
		"100K":  100 << 10,
		"100k":  100 << 10,
		"1.5G":  3 << 29,
		"2GiB":  2 << 30,
		" 10M ": 10 << 20,
		"42B":   42,
		// The largest sizes below 2^63 still parse.
		"8589934591G":         8589934591 << 30,
		"9223372036854774784": 9223372036854774784,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	// "4x" and "4Gx" used to parse as 4 bytes: Sscanf("%g") stopped at the
	// garbage instead of rejecting it. The whole string must parse now.
	bad := []string{
		"", "abc", "-5M", "-1", "4x", "4Gx", "x4G", "4GiBx",
		"G", "iB", "inf", "Inf", "NaN", "nanG", "1e400",
		// Past int64: these once wrapped to -9223372036854775808 with no
		// error, and a --maxmem that wrapped planned AMC.
		"1e30", "1e19", "9999999999G", "9223372036854775808", "8589934592G",
	}
	for _, in := range bad {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) accepted as %d", in, got)
		}
	}
}

func TestAccountantSetLimitOvercommit(t *testing.T) {
	a := NewAccountant()
	a.SetLimit(1000)
	a.Alloc("x", 900)
	if err := a.Err(); err != nil {
		t.Fatalf("under-limit alloc flagged: %v", err)
	}
	a.Alloc("y", 200)
	err := a.Err()
	if !errors.Is(err, ErrOvercommit) {
		t.Fatalf("overcommit not detected: %v", err)
	}
	if !strings.Contains(err.Error(), `"y"`) {
		t.Fatalf("overcommit error does not name the category: %v", err)
	}
	// The error is sticky: freeing back under the limit does not clear it.
	a.Free("y", 200)
	if !errors.Is(a.Err(), ErrOvercommit) {
		t.Fatal("overcommit error not sticky")
	}
}

func TestTryAllocAdmission(t *testing.T) {
	a := NewAccountant()
	a.SetLimit(1000)
	if !a.TryAlloc("req", 600) {
		t.Fatal("fitting reservation refused")
	}
	if a.TryAlloc("req", 500) {
		t.Fatal("over-limit reservation admitted")
	}
	// Rejection is side-effect free: no sticky error, no accounting change.
	if err := a.Err(); err != nil {
		t.Fatalf("rejected TryAlloc armed the sticky error: %v", err)
	}
	if got := a.Current(); got != 600 {
		t.Fatalf("rejected TryAlloc changed accounting: current = %d", got)
	}
	if got := a.Headroom(); got != 400 {
		t.Fatalf("Headroom = %d, want 400", got)
	}
	// Exact fit is admitted; release restores headroom.
	if !a.TryAlloc("req", 400) {
		t.Fatal("exact-fit reservation refused")
	}
	if a.TryAlloc("req", 1) {
		t.Fatal("reservation admitted at zero headroom")
	}
	a.Free("req", 1000)
	if err := a.AssertDrained(); err != nil {
		t.Fatal(err)
	}
	if !a.TryAlloc("req", 1000) {
		t.Fatal("reservation refused after drain")
	}
}

func TestTryAllocUnlimited(t *testing.T) {
	a := NewAccountant()
	if !a.TryAlloc("req", 1<<40) {
		t.Fatal("unlimited accountant refused a reservation")
	}
	if got := a.Headroom(); got != -1 {
		t.Fatalf("Headroom without a limit = %d, want -1", got)
	}
}

func TestTryAllocRefusesAfterStickyFailure(t *testing.T) {
	a := NewAccountant()
	a.SetLimit(100)
	a.Alloc("x", 200) // arms the sticky overcommit
	if !errors.Is(a.Err(), ErrOvercommit) {
		t.Fatal("setup: overcommit not armed")
	}
	a.Free("x", 200)
	if a.TryAlloc("req", 1) {
		t.Fatal("TryAlloc admitted work on a failed accountant")
	}
}

func TestAccountantLimitDisabled(t *testing.T) {
	a := NewAccountant()
	a.Alloc("x", 1<<40)
	if err := a.Err(); err != nil {
		t.Fatalf("unlimited accountant flagged: %v", err)
	}
}

func TestAssertDrained(t *testing.T) {
	a := NewAccountant()
	if err := a.AssertDrained(); err != nil {
		t.Fatalf("empty accountant not drained: %v", err)
	}
	a.Alloc("clv", 100)
	a.Alloc("scores", 50)
	a.Free("scores", 50)
	if err := a.AssertDrained("scores"); err != nil {
		t.Fatalf("zeroed category flagged: %v", err)
	}
	err := a.AssertDrained()
	if !errors.Is(err, ErrNotDrained) {
		t.Fatalf("leftover bytes not flagged: %v", err)
	}
	if !strings.Contains(err.Error(), "clv=") {
		t.Fatalf("leak report does not name the category: %v", err)
	}
	if err := a.AssertDrained("clv"); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("named leaking category not flagged: %v", err)
	}
	a.Free("clv", 100)
	if err := a.AssertDrained(); err != nil {
		t.Fatalf("drained accountant flagged: %v", err)
	}
}

func TestAccountantInjectedOvercommit(t *testing.T) {
	a := NewAccountant()
	injected := fmt.Errorf("injected")
	faultinject.Arm(faultinject.PointAcctAlloc, 0, injected)
	defer faultinject.Reset()
	a.Alloc("x", 1)
	err := a.Err()
	if !errors.Is(err, ErrOvercommit) || !errors.Is(err, injected) {
		t.Fatalf("injected overcommit = %v", err)
	}
}

// proRefConfig mirrors the paper's largest dataset dimensions.
func proRefConfig(maxmem int64, chunk int) PlanConfig {
	n := 20000
	return PlanConfig{
		MaxMem:    maxmem,
		Branches:  2*n - 3,
		InnerCLVs: 3 * (n - 2),
		MinSlots:  17, // ~log2(20000)+2
		Patterns:  1200,
		Sites:     1582,
		States:    4,
		CLVBytes:  1200*4*4*8 + 1200*4,
		NumLeaves: n,
		ChunkSize: chunk,
	}
}

func TestPlanUnlimitedIsReferenceMode(t *testing.T) {
	p, err := PlanBudget(proRefConfig(0, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if p.AMC {
		t.Fatal("unlimited memory enabled AMC")
	}
	if !p.LookupEnabled {
		t.Fatal("unlimited memory disabled lookup")
	}
	if p.Slots != 3*(20000-2) {
		t.Fatalf("slots = %d", p.Slots)
	}
	if p.TotalBytes != ReferenceFootprint(proRefConfig(0, 5000)) {
		t.Fatalf("total %d != reference %d", p.TotalBytes, ReferenceFootprint(proRefConfig(0, 5000)))
	}
}

func TestPlanGenerousLimitIsReferenceMode(t *testing.T) {
	ref := ReferenceFootprint(proRefConfig(0, 5000))
	p, err := PlanBudget(proRefConfig(ref+1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if p.AMC {
		t.Fatal("limit above reference footprint enabled AMC")
	}
}

func TestPlanModerateLimitKeepsLookup(t *testing.T) {
	ref := ReferenceFootprint(proRefConfig(0, 5000))
	p, err := PlanBudget(proRefConfig(ref/2, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if !p.AMC {
		t.Fatal("half reference footprint did not enable AMC")
	}
	if !p.LookupEnabled {
		t.Fatal("half reference footprint lost the lookup table")
	}
	if p.Slots >= 3*(20000-2) || p.Slots < 17 {
		t.Fatalf("slots = %d", p.Slots)
	}
	if p.TotalBytes > ref/2 {
		t.Fatalf("planned %d exceeds limit %d", p.TotalBytes, ref/2)
	}
}

func TestPlanTightLimitDropsLookup(t *testing.T) {
	cfg := proRefConfig(0, 5000)
	// Just above the bare minimum: fixed + chunk + branch buffers + min slots.
	minimal := fixedBytes(cfg) + chunkBytes(cfg, 5000) + 2*DefaultBlockSize*CLVsPerBufferedBranch*cfg.CLVBytes + int64(cfg.MinSlots)*cfg.CLVBytes
	p, err := PlanBudget(proRefConfig(minimal+10*cfg.CLVBytes, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if !p.AMC || p.LookupEnabled {
		t.Fatalf("tight limit: AMC=%v lookup=%v", p.AMC, p.LookupEnabled)
	}
	if p.Slots < cfg.MinSlots {
		t.Fatalf("slots = %d below minimum", p.Slots)
	}
}

func TestPlanInfeasibleLimitErrors(t *testing.T) {
	_, err := PlanBudget(proRefConfig(1<<20, 5000))
	if err == nil {
		t.Fatal("1 MiB limit accepted for pro_ref dimensions")
	}
	if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not suggest reducing the chunk size: %v", err)
	}
}

func TestPlanSmallerChunkLowersFloor(t *testing.T) {
	// The paper's Fig. 4: a smaller chunk size admits lower memory limits.
	cfg5000 := proRefConfig(0, 5000)
	cfg500 := proRefConfig(0, 500)
	floor := func(c PlanConfig) int64 {
		return fixedBytes(c) + chunkBytes(c, c.ChunkSize) + 2*DefaultBlockSize*CLVsPerBufferedBranch*c.CLVBytes + int64(c.MinSlots)*c.CLVBytes
	}
	if floor(cfg500) >= floor(cfg5000) {
		t.Fatalf("chunk 500 floor %d not below chunk 5000 floor %d", floor(cfg500), floor(cfg5000))
	}
	// A limit feasible at chunk 500 but not at 5000 must behave accordingly.
	limit := (floor(cfg500) + floor(cfg5000)) / 2
	if _, err := PlanBudget(proRefConfig(limit, 5000)); err == nil {
		t.Fatal("limit between floors accepted at chunk 5000")
	}
	if _, err := PlanBudget(proRefConfig(limit, 500)); err != nil {
		t.Fatalf("limit between floors rejected at chunk 500: %v", err)
	}
}

func TestPlanInvalidChunk(t *testing.T) {
	if _, err := PlanBudget(proRefConfig(0, 0)); err == nil {
		t.Fatal("chunk 0 accepted")
	}
}

// A negative ceiling is a caller's overflow, not "unlimited" or a tiny
// budget: PlanBudget rejects it rather than plan AMC from wrapped arithmetic.
func TestPlanNegativeMaxMem(t *testing.T) {
	if _, err := PlanBudget(proRefConfig(-1<<63, 5000)); err == nil {
		t.Fatal("negative maxmem accepted")
	}
}

func TestPlanNeverExceedsLimitProperty(t *testing.T) {
	f := func(seedRaw int64) bool {
		seed := seedRaw
		if seed < 0 {
			seed = -seed
		}
		cfg := proRefConfig(0, 500)
		ref := ReferenceFootprint(cfg)
		minimal := fixedBytes(cfg) + chunkBytes(cfg, 500) + 2*DefaultBlockSize*CLVsPerBufferedBranch*cfg.CLVBytes + int64(cfg.MinSlots)*cfg.CLVBytes
		limit := minimal + seed%(2*ref)
		cfg.MaxMem = limit
		p, err := PlanBudget(cfg)
		if err != nil {
			return false
		}
		if p.AMC {
			return p.TotalBytes <= limit && p.Slots >= cfg.MinSlots
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanBlockSizeClamped(t *testing.T) {
	cfg := proRefConfig(0, 100)
	cfg.Branches = 10
	cfg.InnerCLVs = 15
	cfg.BlockSize = 1000
	cfg.MaxMem = 0
	p, err := PlanBudget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockSize != 1 {
		t.Fatalf("block size = %d, want clamped to 1", p.BlockSize)
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Alloc("x", 10)
				a.Free("x", 10)
			}
		}()
	}
	wg.Wait()
	if a.Current() != 0 {
		t.Fatalf("current = %d after balanced concurrent use", a.Current())
	}
	if a.Peak() < 10 {
		t.Fatalf("peak = %d", a.Peak())
	}
}

func TestLookupFloorBetweenMinAndReference(t *testing.T) {
	cfg := proRefConfig(0, 500)
	min := MinFeasibleBytes(cfg)
	floor := LookupFloorBytes(cfg)
	ref := ReferenceFootprint(cfg)
	if !(min < floor && floor < ref) {
		t.Fatalf("ordering violated: min %d, lookup floor %d, ref %d", min, floor, ref)
	}
	// A budget at the lookup floor keeps the lookup; one just below drops it.
	cfg.MaxMem = floor
	p, err := PlanBudget(cfg)
	if err != nil || !p.LookupEnabled {
		t.Fatalf("at lookup floor: lookup=%v err=%v", p.LookupEnabled, err)
	}
	cfg.MaxMem = floor - 2*cfg.CLVBytes
	p, err = PlanBudget(cfg)
	if err != nil || p.LookupEnabled {
		t.Fatalf("below lookup floor: lookup=%v err=%v", p.LookupEnabled, err)
	}
}

// TestPeakBreakdown checks per-category peaks survive frees and that the
// instantaneous total peak can be below the sum of category peaks.
func TestPeakBreakdown(t *testing.T) {
	a := NewAccountant()
	a.Alloc("clv", 100)
	a.Free("clv", 100)
	a.Alloc("lookup", 60)
	a.Free("lookup", 60)
	a.Alloc("clv", 40)
	pb := a.PeakBreakdown()
	if pb["clv"] != 100 || pb["lookup"] != 60 {
		t.Fatalf("peak breakdown = %v, want clv=100 lookup=60", pb)
	}
	if got := a.Peak(); got != 100 {
		t.Fatalf("total peak = %d, want 100", got)
	}
	if pb["clv"]+pb["lookup"] <= a.Peak() {
		t.Fatalf("expected sum of category peaks (%d) > total peak (%d) in this sequence",
			pb["clv"]+pb["lookup"], a.Peak())
	}
	// The returned map is a copy.
	pb["clv"] = 0
	if a.PeakBreakdown()["clv"] != 100 {
		t.Fatal("PeakBreakdown returned internal map, not a copy")
	}
}
