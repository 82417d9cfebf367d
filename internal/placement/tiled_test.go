package placement

import (
	"bytes"
	"context"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/telemetry"
)

// renderStream places the fixture's queries under cfg and serializes the
// jplace document — the byte-level artifact every determinism test compares.
func renderStream(t *testing.T, fx *fixture, cfg Config) []byte {
	t.Helper()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var placed []jplace.Placements
	if _, err := eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: placed, Invocation: "test"}
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTileByteIdentity: placement output must be byte-identical across tile
// sizes (including the degenerate per-query shape), thread counts, AMC
// on/off, and the lookup-less fallback path — the tiled kernels replicate
// the per-cell FP order exactly.
func TestTileByteIdentity(t *testing.T) {
	fx := newFixture(t, 47, 16, 120, 21)
	base := testConfig()
	base.ChunkSize = 6
	amcMem := tightMaxMem(t, fx, base, true)

	ref := renderStream(t, fx, base) // auto tile sizes, full memory
	for _, tile := range []int{1, 3, 64} {
		for _, threads := range []int{1, 8} {
			for _, amc := range []bool{false, true} {
				for _, noLookup := range []bool{false, true} {
					cfg := base
					cfg.TileQueries = tile
					cfg.TileBranches = tile
					cfg.Threads = threads
					cfg.DisableLookup = noLookup
					if amc {
						cfg.MaxMem = amcMem
					}
					out := renderStream(t, fx, cfg)
					if !bytes.Equal(out, ref) {
						t.Fatalf("output differs at tile=%d threads=%d amc=%v noLookup=%v",
							tile, threads, amc, noLookup)
					}
				}
			}
		}
	}
}

// TestKernelTelemetryPopulated: a tiled run must report its tile dimensions
// and activity through the kernel telemetry group.
func TestKernelTelemetryPopulated(t *testing.T) {
	fx := newFixture(t, 59, 12, 80, 9)
	cfg := testConfig()
	cfg.ChunkSize = 4
	cfg.TileQueries = 3
	cfg.TileBranches = 5
	cfg.Telemetry = telemetry.NewSink()
	rep, _ := placeWithSink(t, fx, cfg)
	k := rep.Telemetry.Kernel
	if k.TileQueries != 3 || k.TileBranches != 5 {
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
		for qlo := 0; qlo < len(chunk); qlo += cfg.TileQueries {
			var refs [][]uint32
			for _, q := range chunk[qlo:min(qlo+cfg.TileQueries, len(chunk))] {
				refs = append(refs, q.Codes)
			}
			index := fx.part.AppendQueryTile(nil, refs, cfg.SkipGaps)
			want = max(want, int64(len(index))*4+int64(len(refs))*8+int64(fx.part.PrescoreRowLen())*8)
		}
	}
	if got := k.BlockResidentBytes.Load(); got != want {
		t.Fatalf("resident high-water %d bytes, the largest tile keeps %d", got, want)
	}
}
