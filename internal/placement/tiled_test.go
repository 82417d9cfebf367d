package placement

import (
	"testing"

	"phylomem/internal/telemetry"
)

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
