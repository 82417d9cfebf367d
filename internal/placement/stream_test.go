package placement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

func TestPlaceStreamMatchesPlace(t *testing.T) {
	fx := newFixture(t, 20, 20, 100, 12)
	cfg := testConfig()
	cfg.ChunkSize = 5
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := eng.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}

	eng2, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []jplace.Placements
	n, err := eng2.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(p jplace.Placements) error {
		streamed = append(streamed, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fx.queries) {
		t.Fatalf("streamed %d of %d", n, len(fx.queries))
	}
	if !sameJplace(t, fx, cfg, streamed, bulk.Queries) {
		t.Fatal("streaming changed results")
	}
	if eng2.Stats().QueriesPlaced != len(fx.queries) {
		t.Fatalf("stats QueriesPlaced = %d", eng2.Stats().QueriesPlaced)
	}
}

func TestFastaSourceEndToEnd(t *testing.T) {
	fx := newFixture(t, 21, 12, 80, 0)
	// Render three aligned queries as FASTA and place them via streaming.
	width := fx.part.Comp.OriginalWidth()
	var sb strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, ">sq%d\n%s\n", i, strings.Repeat("A", width))
	}
	src := NewFastaSource(seq.NewFastaScanner(strings.NewReader(sb.String())), seq.DNA, width)
	eng, err := New(fx.part, fx.tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	n, err := eng.PlaceStream(context.Background(), src, func(p jplace.Placements) error {
		count++
		if len(p.Placements) == 0 {
			t.Fatalf("query %s got no placements", p.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || count != 3 {
		t.Fatalf("placed %d/%d", n, count)
	}
}

func TestFastaSourceValidation(t *testing.T) {
	fx := newFixture(t, 22, 12, 80, 0)
	cfg := DefaultConfig()
	cfg.Strict = true
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	width := fx.part.Comp.OriginalWidth()
	// Wrong width: in strict mode the stream aborts with a typed error.
	src := NewFastaSource(seq.NewFastaScanner(strings.NewReader(">q\nACGT\n")), seq.DNA, width)
	_, err = eng.PlaceStream(context.Background(), src, func(jplace.Placements) error { return nil })
	if err == nil {
		t.Fatal("wrong-width streamed query accepted")
	}
	if !errors.Is(err, ErrQueryMalformed) {
		t.Fatalf("error is not ErrQueryMalformed: %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Name != "q" || qe.Index != 0 {
		t.Fatalf("QueryError not populated: %+v", qe)
	}
	// Invalid character.
	bad := strings.Repeat("A", width-1) + "!"
	src = NewFastaSource(seq.NewFastaScanner(strings.NewReader(">q\n"+bad+"\n")), seq.DNA, width)
	if _, err := eng.PlaceStream(context.Background(), src, func(jplace.Placements) error { return nil }); err == nil {
		t.Fatal("invalid character accepted")
	}
}

// TestFastaSourceLenientSkip checks the default (non-strict) policy: malformed
// queries are skipped and counted, the well-formed remainder is placed.
func TestFastaSourceLenientSkip(t *testing.T) {
	fx := newFixture(t, 22, 12, 80, 0)
	eng, err := New(fx.part, fx.tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	width := fx.part.Comp.OriginalWidth()
	good := strings.Repeat("A", width)
	in := ">ok0\n" + good + "\n>short\nACGT\n>bad\n" + strings.Repeat("A", width-1) + "!\n>ok1\n" + good + "\n"
	src := NewFastaSource(seq.NewFastaScanner(strings.NewReader(in)), seq.DNA, width)
	var names []string
	n, err := eng.PlaceStream(context.Background(), src, func(p jplace.Placements) error {
		names = append(names, p.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(names) != 2 || names[0] != "ok0" || names[1] != "ok1" {
		t.Fatalf("placed %d queries %v, want [ok0 ok1]", n, names)
	}
	st := eng.Stats()
	if st.QueriesSkipped != 2 {
		t.Fatalf("QueriesSkipped = %d, want 2", st.QueriesSkipped)
	}
	if st.QueriesPlaced != 2 {
		t.Fatalf("QueriesPlaced = %d, want 2", st.QueriesPlaced)
	}
}

// TestSequenceSourcesAgree feeds the same records, malformed ones included,
// to the streaming and the in-memory source: under either skip policy they
// yield equal queries and equal malformed-query errors (name, input ordinal
// and message), with every chunk boundary the drain's reads can cross.
func TestSequenceSourcesAgree(t *testing.T) {
	const width = 8
	seqs := []seq.Sequence{
		{Label: "ok0", Data: []byte("ACGTACGT")},
		{Label: "short", Data: []byte("ACGT")},
		{Label: "ambig", Data: []byte("ACGTNRY-")},
		{Label: "badchar", Data: []byte("ACGTACG!")},
		{Label: "long", Data: []byte("ACGTACGTA")},
		{Label: "ok1", Data: []byte("acgtacgt")},
	}
	var fasta bytes.Buffer
	if err := seq.WriteFasta(&fasta, seqs); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		stream, sskipped, serr := ReadQueries(NewFastaSource(seq.NewFastaScanner(bytes.NewReader(fasta.Bytes())), seq.DNA, width), strict)
		mem, mskipped, merr := ReadQueries(NewSequenceSource(seqs, seq.DNA, width), strict)
		if !reflect.DeepEqual(stream, mem) {
			t.Fatalf("strict=%v: queries differ:\n%+v\n%+v", strict, stream, mem)
		}
		if len(sskipped) != len(mskipped) {
			t.Fatalf("strict=%v: skipped %d vs %d", strict, len(sskipped), len(mskipped))
		}
		for i := range sskipped {
			a, b := sskipped[i], mskipped[i]
			if a.Name != b.Name || a.Index != b.Index || a.Error() != b.Error() {
				t.Fatalf("strict=%v: skip %d differs: %v vs %v", strict, i, a, b)
			}
		}
		if strict {
			var a, b *QueryError
			if !errors.As(serr, &a) || !errors.As(merr, &b) || a.Name != "short" || a.Index != 1 || a.Error() != b.Error() {
				t.Fatalf("strict errors: %v vs %v, want both on \"short\" (input #1)", serr, merr)
			}
			continue
		}
		if serr != nil || merr != nil {
			t.Fatalf("lenient errors: %v, %v", serr, merr)
		}
		if len(mem) != 3 || len(mskipped) != 3 || mskipped[0].Name != "short" || mskipped[2].Index != 4 {
			t.Fatalf("lenient drain: %d queries, skipped %v", len(mem), mskipped)
		}
	}
	// Chunked reads: the engine's loop sees the same queries at every size.
	want, _, _ := ReadQueries(NewSequenceSource(seqs, seq.DNA, width), false)
	if got, _, err := ReadQueries(NewSliceSource(want), true); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("draining a SliceSource: %v", err)
	}
	for max := 1; max <= len(seqs); max++ {
		src := NewFastaSource(seq.NewFastaScanner(bytes.NewReader(fasta.Bytes())), seq.DNA, width)
		var got []Query
		for {
			chunk, _, err := readQueries(src, max, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk) == 0 {
				break
			}
			if len(chunk) > max {
				t.Fatalf("max %d: chunk of %d", max, len(chunk))
			}
			got = append(got, chunk...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("max %d: chunked reads differ from the drain", max)
		}
	}
}

func TestPlaceStreamSinkError(t *testing.T) {
	fx := newFixture(t, 23, 12, 80, 6)
	eng, err := New(fx.part, fx.tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("sink full")
	_, err = eng.PlaceStream(context.Background(), NewSliceSource(fx.queries), func(jplace.Placements) error { return wantErr })
	if err != wantErr {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

// slowSource delays every NextChunk, so reading takes a measurable share of
// the chunk loop's wall.
type slowSource struct {
	inner QuerySource
	delay time.Duration
}

func (s *slowSource) NextChunk(max int) ([]Query, error) {
	time.Sleep(s.delay)
	return s.inner.NextChunk(max)
}

// TestChunkLoopSerialOrderedEmission drives the chunk loop with a slow
// source and a slow sink. Every query must reach the sink in exact input
// order, and the loop must run read, place and emit one after another on
// the calling goroutine: no goroutine beyond those alive before the call
// exists while the sink runs, the placer's wait is exactly the read time,
// and the three stage timers sum to at most the place wall.
func TestChunkLoopSerialOrderedEmission(t *testing.T) {
	fx := newFixture(t, 24, 16, 100, 15)
	cfg := testConfig()
	cfg.ChunkSize = 3 // 5 chunks
	cfg.Telemetry = telemetry.NewSink()
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	src := &slowSource{inner: NewSliceSource(fx.queries), delay: time.Millisecond}
	var got []string
	var inSink []int // goroutine counts seen inside the sink that differ from baseline
	baseline := runtime.NumGoroutine()
	n, err := eng.PlaceStream(context.Background(), src, func(p jplace.Placements) error {
		if g := runtime.NumGoroutine(); g != baseline {
			inSink = append(inSink, g)
		}
		time.Sleep(time.Millisecond) // slow sink: emitting takes a share of the placer's wall
		got = append(got, p.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fx.queries) {
		t.Fatalf("placed %d of %d", n, len(fx.queries))
	}
	for i, q := range fx.queries {
		if got[i] != q.Name {
			t.Fatalf("emission order broken at %d: got %q want %q", i, got[i], q.Name)
		}
	}
	st := eng.Stats()
	if st.ChunksProcessed != 5 {
		t.Fatalf("ChunksProcessed = %d, want 5", st.ChunksProcessed)
	}
	if st.ChunkRead <= 0 || st.PlaceWall <= 0 {
		t.Fatalf("chunk-loop stats not populated: read %v wall %v", st.ChunkRead, st.PlaceWall)
	}
	if len(inSink) > 0 {
		t.Errorf("goroutine counts %v inside the sink, %d before PlaceStream", inSink, baseline)
	}
	if st.ChunkWait != st.ChunkRead {
		t.Errorf("ChunkWait %v != ChunkRead %v: the placer waited on something besides the read", st.ChunkWait, st.ChunkRead)
	}
	pipe := &cfg.Telemetry.Pipeline
	if sum := st.ChunkRead + pipe.PlaceBusy.Load() + pipe.EmitBusy.Load(); sum > st.PlaceWall {
		t.Errorf("read %v + place %v + emit %v = %v exceeds the place wall %v: stages overlapped",
			st.ChunkRead, pipe.PlaceBusy.Load(), pipe.EmitBusy.Load(), sum, st.PlaceWall)
	}
}

func TestSliceSourceChunking(t *testing.T) {
	qs := make([]Query, 7)
	src := NewSliceSource(qs)
	sizes := []int{}
	for {
		c, err := src.NextChunk(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 {
			break
		}
		sizes = append(sizes, len(c))
	}
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("chunk sizes = %v", sizes)
	}
}
