// Package placement implements the EPA-NG equivalent: maximum-likelihood
// phylogenetic placement of query sequences on a fixed reference tree, with
// the paper's memory-saving machinery — budget-driven mode selection
// (internal/memacct), slot-managed CLVs (internal/core), the pre-placement
// lookup table memoization, query chunking, and branch-block precomputation
// with an asynchronous double-buffered pipeline.
//
// Every kernel reads its CLVs as phylo.Operands, taken straight from the
// resident phylo.FullCLVSet or acquired from the core.Manager's slots under
// AMC, so enabling Active Management of CLVs changes only where CLVs live,
// never the placement results: AMC on/off, slot counts, replacement
// strategies, and thread counts all produce bit-identical output.
package placement

import (
	"errors"
	"fmt"

	"phylomem/internal/seq"
)

// Query is one query sequence, encoded as per-site state bitmasks aligned to
// the reference alignment's columns.
type Query struct {
	Name  string
	Codes []uint32
}

// ErrQueryMalformed marks a query that failed validation or encoding (wrong
// alignment width, invalid character). Malformed queries are a per-query
// event, not a run-killer: by default the engine skips them (counting the
// skips in RunStats.QueriesSkipped) and Config.Strict restores the abort.
// Test with errors.Is; retrieve the query's name and input ordinal with
// errors.As on *QueryError.
var ErrQueryMalformed = errors.New("placement: malformed query")

// QueryError identifies one malformed query by name and 0-based position in
// the input stream. It matches ErrQueryMalformed under errors.Is and
// unwraps to the underlying cause.
type QueryError struct {
	Name  string
	Index int
	Err   error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("placement: malformed query %q (input #%d): %v", e.Name, e.Index, e.Err)
}

// Unwrap lets errors.Is see both the sentinel and the cause.
func (e *QueryError) Unwrap() []error { return []error{ErrQueryMalformed, e.Err} }

// EncodeQueries validates and encodes aligned query sequences. Every query
// must have exactly the reference alignment's width; the first malformed
// query aborts with a *QueryError.
func EncodeQueries(a *seq.Alphabet, seqs []seq.Sequence, width int) ([]Query, error) {
	out, _, err := encodeQueries(a, seqs, width, true)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeQueriesLenient encodes like EncodeQueries but skips malformed
// queries instead of aborting, returning them as typed errors alongside the
// successfully encoded set.
func EncodeQueriesLenient(a *seq.Alphabet, seqs []seq.Sequence, width int) ([]Query, []*QueryError) {
	out, skipped, _ := encodeQueries(a, seqs, width, false)
	return out, skipped
}

func encodeQueries(a *seq.Alphabet, seqs []seq.Sequence, width int, strict bool) ([]Query, []*QueryError, error) {
	out := make([]Query, 0, len(seqs))
	var skipped []*QueryError
	for i, s := range seqs {
		var cause error
		if len(s.Data) != width {
			cause = fmt.Errorf("has %d sites, reference alignment has %d", len(s.Data), width)
		} else if codes, err := a.Encode(s.Data); err != nil {
			cause = err
		} else {
			out = append(out, Query{Name: s.Label, Codes: codes})
			continue
		}
		qerr := &QueryError{Name: s.Label, Index: i, Err: cause}
		if strict {
			return nil, nil, qerr
		}
		skipped = append(skipped, qerr)
	}
	return out, skipped, nil
}

// QueryBytes returns the accounted footprint of a set of encoded queries.
func QueryBytes(qs []Query) int64 {
	var b int64
	for _, q := range qs {
		b += int64(len(q.Codes)) * 4
	}
	return b
}
