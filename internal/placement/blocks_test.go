package placement

import (
	"context"
	"errors"
	"math"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/phylo"
)

// TestFullMemoryBlocksAliasResidentCLVs: in full-memory mode a branch block
// copies nothing — every inner operand of every entry is the resident CLV
// set's own storage, the block buffer holds one CLV per branch (the midpoint)
// and no private scratch — and the midpoint derived across the pool is
// bit-identical to the serial update. Under AMC the operands are snapshots in
// the block's three-CLV-per-branch buffer, because the slots they came from
// are recomputed while the block is in use.
func TestFullMemoryBlocksAliasResidentCLVs(t *testing.T) {
	fx := newFixture(t, 211, 24, 90, 4)
	cfg := testConfig()
	cfg.Threads = 3
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cl := fx.part.CLVLen()
	inner := 0
	err = eng.runBlocks(context.Background(), eng.branchOrder, func(blk *branchBlock) error {
		if blk.sc != nil || len(blk.clvBuf) != eng.plan.BlockSize*cl {
			t.Fatalf("full-memory block holds %d CLV values (want %d, one CLV per branch) and scratch %v", len(blk.clvBuf), eng.plan.BlockSize*cl, blk.sc)
		}
		for i := range blk.entries {
			ent := &blk.entries[i]
			a, b := ent.edge.Nodes()
			opA, opB := eng.full.Operand(fx.tr.DirOf(ent.edge, a)), eng.full.Operand(fx.tr.DirOf(ent.edge, b))
			for _, pair := range []struct {
				got, want phylo.Operand
			}{{ent.u, opA}, {ent.v, opB}} {
				if pair.want.IsTip() {
					if &pair.got.Tip[0] != &pair.want.Tip[0] {
						t.Fatalf("edge %d: tip operand is not the partition's tip codes", ent.edge.ID)
					}
					continue
				}
				inner++
				if &pair.got.CLV[0] != &pair.want.CLV[0] || &pair.got.Scale[0] != &pair.want.Scale[0] {
					t.Fatalf("edge %d: inner operand is a copy, want the resident CLV", ent.edge.ID)
				}
			}
			wantM, wantS := make([]float64, cl), make([]int32, fx.part.ScaleLen())
			p := make([]float64, fx.part.PLen())
			fx.part.FillP(p, ent.edge.Length/2)
			fx.part.UpdateCLVScratch(wantM, wantS, opA, opB, p, p, fx.part.NewScratch())
			for j := range wantM {
				if math.Float64bits(ent.m[j]) != math.Float64bits(wantM[j]) {
					t.Fatalf("edge %d: midpoint CLV[%d] = %v, serial update %v", ent.edge.ID, j, ent.m[j], wantM[j])
				}
			}
			for j := range wantS {
				if ent.ms[j] != wantS[j] {
					t.Fatalf("edge %d: midpoint scale[%d] = %d, serial update %d", ent.edge.ID, j, ent.ms[j], wantS[j])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner == 0 {
		t.Fatal("no inner operand checked")
	}

	cfg.MaxMem = tightMaxMem(t, fx, cfg, false)
	amc, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer amc.Close()
	err = amc.runBlocks(context.Background(), amc.branchOrder, func(blk *branchBlock) error {
		if blk.sc == nil || len(blk.clvBuf) != amc.plan.BlockSize*memacct.CLVsPerBufferedBranch*cl {
			t.Fatalf("AMC block holds %d CLV values and scratch %v, want three CLVs per branch and its own scratch", len(blk.clvBuf), blk.sc)
		}
		for i := range blk.entries {
			if u := blk.entries[i].u; u.CLV != nil && &u.CLV[0] != &blk.clvBuf[3*i*cl] {
				t.Fatalf("AMC entry %d: operand is not the block's own snapshot", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReclaimLeversWaitForChunkHoldingAliases: while a chunk is in flight —
// its blocks alias the resident CLV set — Resize and Demote cannot start,
// because they take the run lock the place path holds; once the run is over
// they refuse a full-memory engine, and the resident CLVs were never written.
func TestReclaimLeversWaitForChunkHoldingAliases(t *testing.T) {
	fx := newFixture(t, 212, 20, 80, 9)
	cfg := testConfig()
	cfg.ChunkSize = 3
	cfg.Threads = 2
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	snapshot := func() []uint64 {
		var bits []uint64
		for _, edge := range eng.branchOrder {
			a, b := edge.Nodes()
			for _, op := range []phylo.Operand{eng.full.Operand(fx.tr.DirOf(edge, a)), eng.full.Operand(fx.tr.DirOf(edge, b))} {
				for _, v := range op.CLV {
					bits = append(bits, math.Float64bits(v))
				}
			}
		}
		return bits
	}
	before := snapshot()
	emitted := 0
	_, err = eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(jplace.Placements) error {
		emitted++
		if eng.runMu.TryLock() {
			eng.runMu.Unlock()
			t.Error("run lock free while a chunk is in flight: Resize/Demote could start under the block aliases")
		}
		return nil
	})
	if err != nil || emitted != len(fx.queries) {
		t.Fatalf("PlaceStream: %d of %d emitted, err %v", emitted, len(fx.queries), err)
	}
	if err := eng.Resize(4); !errors.Is(err, ErrFullResident) {
		t.Fatalf("Resize after the run: %v, want ErrFullResident", err)
	}
	if _, err := eng.Demote(); !errors.Is(err, ErrFullResident) {
		t.Fatalf("Demote after the run: %v, want ErrFullResident", err)
	}
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("resident CLV value %d changed during the run", i)
		}
	}
}
