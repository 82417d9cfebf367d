package placement

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/phylo"
	"phylomem/internal/tree"
)

// residentOperand returns the slot manager's operand for d without leaving a
// pin: on a filled pool the Acquire is a hit and the operand is the slot.
func residentOperand(t *testing.T, eng *Engine, d tree.Dir) phylo.Operand {
	t.Helper()
	op, err := eng.mgr.Acquire(d)
	if err != nil {
		t.Fatal(err)
	}
	eng.mgr.Release(d)
	return op
}

// TestFullMemoryBlocksAliasResidentCLVs: in reference mode a branch block
// copies nothing — every inner operand of every entry is the filled slot
// pool's own storage, the block buffer holds one CLV per branch (the
// midpoint) and no private scratch — and the midpoint derived across the
// pool is bit-identical to the serial update. Under AMC the operands are
// snapshots in the block's three-CLV-per-branch buffer, because the slots
// they came from are recomputed while the block is in use.
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
			opA, opB := residentOperand(t, eng, fx.tr.DirOf(ent.edge, a)), residentOperand(t, eng, fx.tr.DirOf(ent.edge, b))
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
// its blocks alias the filled slot pool — Resize cannot start, because it
// takes the run lock the place path holds, and the resident CLVs are never
// written. Once the run is over the waiting Resize succeeds, and the shrunk
// engine places exactly like the unshrunk one.
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
		for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
			for _, v := range residentOperand(t, eng, fx.tr.DirOfCLV(i)).CLV {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return bits
	}
	before := snapshot()
	half := fx.tr.NumInnerCLVs() / 2
	resized := make(chan error, 1)
	var first []jplace.Placements
	_, err = eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		if len(first) == 0 {
			go func() { resized <- eng.Resize(half) }()
		}
		first = append(first, p)
		if eng.runMu.TryLock() {
			eng.runMu.Unlock()
			t.Error("run lock free while a chunk is in flight: Resize/Demote could start under the block aliases")
		}
		select {
		case err := <-resized:
			t.Fatalf("Resize returned (%v) while a chunk was in flight", err)
		default:
		}
		if !slices.Equal(before, snapshot()) {
			t.Fatal("resident CLVs changed during the run")
		}
		return nil
	})
	if err != nil || len(first) != len(fx.queries) {
		t.Fatalf("PlaceStream: %d of %d emitted, err %v", len(first), len(fx.queries), err)
	}
	if err := <-resized; err != nil {
		t.Fatalf("Resize after the run: %v", err)
	}
	if eng.mgr.Filled() || eng.Stats().Slots != half {
		t.Fatalf("after Resize(%d): filled %v, %d slots", half, eng.mgr.Filled(), eng.Stats().Slots)
	}
	res, err := eng.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Queries, first) {
		t.Fatal("placements after the shrink differ from the unshrunk run")
	}
}
