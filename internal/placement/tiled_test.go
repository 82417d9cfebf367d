package placement

import (
	"context"
	"math"
	"testing"

	"phylomem/internal/telemetry"
)

// TestKernelTelemetryPopulated: a tiled run must report its tile dimensions
// and activity through the kernel telemetry group.
func TestKernelTelemetryPopulated(t *testing.T) {
	fx := newFixture(t, 59, 12, 80, 9)
	cfg := testConfig()
	cfg.ChunkSize = 4
	cfg.Telemetry = telemetry.NewSink()
	const tileQ, tileB = 3, 5
	rep, _ := placeWithSink(t, fx, cfg, func(e *Engine) { e.tileQ, e.tileB = tileQ, tileB })
	k := rep.Telemetry.Kernel
	if k.TileQueries != tileQ || k.TileBranches != tileB {
		t.Fatalf("tile dims not reported: %d x %d", k.TileQueries, k.TileBranches)
	}
	tiles, calls := k.TilesExecuted.Load(), k.BlockKernelCalls.Load()
	if tiles == 0 || calls == 0 || k.BlockResidentBytes.Load() == 0 {
		t.Fatalf("kernel activity not reported: %d tiles, %d calls, %d resident bytes", tiles, calls, k.BlockResidentBytes.Load())
	}
	if calls < tiles {
		t.Fatalf("fewer block calls (%d) than tiles (%d)", calls, tiles)
	}
	// The resident high-water is what the largest tile really keeps in cache:
	// its covered-site index, its accumulators and one prescore row.
	var want int64
	for lo := 0; lo < len(fx.queries); lo += cfg.ChunkSize {
		chunk := fx.queries[lo:min(lo+cfg.ChunkSize, len(fx.queries))]
		for qlo := 0; qlo < len(chunk); qlo += tileQ {
			var refs [][]uint32
			for _, q := range chunk[qlo:min(qlo+tileQ, len(chunk))] {
				refs = append(refs, q.Codes)
			}
			index := fx.part.AppendQueryTile(nil, refs, premask)
			want = max(want, int64(len(index))*4+int64(len(refs))*8+int64(fx.part.PrescoreRowLen())*8)
		}
	}
	if got := k.BlockResidentBytes.Load(); got != want {
		t.Fatalf("resident high-water %d bytes, the largest tile keeps %d", got, want)
	}
}

// TestPrescoreBitIdenticalWithoutLookup: a chunk's phase-1 score matrix is
// the same bits with and without the lookup table, in full memory and under
// AMC, at any tile size — both paths score every cell from a prescore row
// built by one formula.
func TestPrescoreBitIdenticalWithoutLookup(t *testing.T) {
	for name, fx := range map[string]*fixture{"reads": newFixture(t, 47, 24, 120, 21), "premask": premaskFixture(t)} {
		nb := fx.tr.NumBranches()
		var ref []float64
		for _, mem := range []memRegime{memFull, memNoLookup, memAMCLookup, memAMCLookupOff, memAMCNoLookup} {
			for _, tile := range []int{0, 3} {
				v := variant{mem: mem}
				eng, err := New(fx.part, fx.tr, v.config(fx, testConfig()))
				if err != nil {
					t.Fatal(err)
				}
				if p := eng.Plan(); p.AMC != mem.amc() || p.LookupEnabled != mem.lookup() {
					t.Fatalf("%s: want regime %q, planner chose AMC=%v lookup=%v", name, mem, p.AMC, p.LookupEnabled)
				}
				if tile != 0 {
					eng.tileQ, eng.tileB = tile, tile
				}
				scores := make([]float64, len(fx.queries)*nb)
				if err := eng.prescore(context.Background(), fx.queries, scores); err != nil {
					t.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = scores
					continue
				}
				for i, s := range scores {
					if math.Float64bits(s) != math.Float64bits(ref[i]) {
						t.Fatalf("%s %q tile %d: query %d branch %d scores %v, with the full-memory table %v",
							name, mem, tile, i/nb, i%nb, s, ref[i])
					}
				}
			}
		}
	}
}
