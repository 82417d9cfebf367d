package placement

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/faultinject"
	"phylomem/internal/tree"
)

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
	refBytes := renderJplace(t, fx, base, refRes.Queries)
	if err := refEng.Close(); err != nil {
		t.Fatal(err)
	}
	maxmem := memFloor.budget(fx, base)

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
			if got := renderJplace(t, fx, base, res.Queries); !bytes.Equal(got, refBytes) {
				t.Errorf("jplace output differs after injected %s", fc.name)
			}
			if err := eng.Close(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}
