package placement

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/faultinject"
	"phylomem/internal/tree"
)

// TestDifferentialSpillPolicies extends the differential suite to the
// tiered eviction path: at the slot floor, every spill policy crossed with
// the built-in replacement strategies and the seeded adversary (the "lru"
// legs, see adversary_test.go) must reproduce the full-resident engine's
// jplace document byte for byte. A reloaded CLV is the same bits as a
// recomputed one, so the discard/spill/hybrid choice may only move work
// between disk and CPU — never into the output.
func TestDifferentialSpillPolicies(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(n int, rng *rand.Rand) (*tree.Tree, error)
	}{
		{"random", func(n int, rng *rand.Rand) (*tree.Tree, error) { return tree.Random(n, 0.12, rng) }},
		{"balanced", func(n int, _ *rand.Rand) (*tree.Tree, error) { return tree.Balanced(n, 0.1) }},
		{"caterpillar", func(n int, _ *rand.Rand) (*tree.Tree, error) { return tree.Caterpillar(n, 0.1) }},
	}
	strategies := []string{"cost", "costage", "lru"}
	policies := []string{"discard", "spill", "hybrid"}

	n := 64
	if testing.Short() {
		n = 16
	}

	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			seed := int64(4000 + n)
			tr, err := shape.gen(n, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			fx := fixtureFromTree(t, tr, seed, 120, 15)

			base := testConfig()
			refRes, refEng := placeWith(t, fx, base)
			if refEng.Plan().AMC {
				t.Fatal("reference run unexpectedly memory-managed")
			}
			refBytes := jplaceBytes(t, fx, refRes)
			if err := refEng.Close(); err != nil {
				t.Fatal(err)
			}

			maxmem := minSlotMaxMem(t, fx, base)
			for _, strat := range strategies {
				for _, pol := range policies {
					t.Run(fmt.Sprintf("%s-%s", strat, pol), func(t *testing.T) {
						cfg := testConfig()
						cfg.MaxMem = maxmem
						cfg.Strategy = testStrategy(strat)
						cfg.SpillPolicy = core.SpillPolicyByName(pol)
						res, eng := placeWith(t, fx, cfg)
						if !eng.Plan().AMC {
							t.Fatalf("budget %d did not force AMC", maxmem)
						}
						stats := eng.Stats().CLVStats
						switch pol {
						case "discard":
							if stats.SpillWrites != 0 || stats.SpillReloads != 0 {
								t.Errorf("discard policy did I/O: %d writes, %d reloads",
									stats.SpillWrites, stats.SpillReloads)
							}
						case "spill":
							if stats.Evictions > 0 && stats.SpillWrites == 0 {
								t.Errorf("spill policy evicted %d times but never wrote", stats.Evictions)
							}
						}
						if got := jplaceBytes(t, fx, res); !bytes.Equal(got, refBytes) {
							t.Errorf("jplace output differs from full-resident reference")
						}
						if err := eng.Close(); err != nil {
							t.Errorf("audit: %v", err)
						}
					})
				}
			}
		})
	}
}

// TestDifferentialSpillFaults injects one-shot I/O failures into the spill
// tier of a full engine run: a failed write degrades that eviction to a
// plain discard, a failed read degrades that reload to a recompute. Either
// way the jplace output must stay byte-identical and the engine's closing
// audits must pass — only the spill_errors counter may notice.
func TestDifferentialSpillFaults(t *testing.T) {
	seed := int64(4064)
	tr, err := tree.Random(32, 0.12, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	fx := fixtureFromTree(t, tr, seed, 120, 15)

	base := testConfig()
	refRes, refEng := placeWith(t, fx, base)
	refBytes := jplaceBytes(t, fx, refRes)
	if err := refEng.Close(); err != nil {
		t.Fatal(err)
	}
	maxmem := minSlotMaxMem(t, fx, base)

	for _, fc := range []struct {
		name  string
		point string
	}{
		{"write-fault", faultinject.PointSpillWrite},
		{"read-fault", faultinject.PointSpillRead},
	} {
		t.Run(fc.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Arm(fc.point, 1, errors.New("injected spill I/O failure"))

			cfg := testConfig()
			cfg.MaxMem = maxmem
			cfg.SpillPolicy = core.SpillOnly{}
			res, eng := placeWith(t, fx, cfg)
			stats := eng.Stats().CLVStats
			if stats.SpillErrors == 0 {
				t.Errorf("armed %s but spill_errors = 0", fc.point)
			}
			if got := jplaceBytes(t, fx, res); !bytes.Equal(got, refBytes) {
				t.Errorf("jplace output differs after injected %s", fc.name)
			}
			if err := eng.Close(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}
