package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"phylomem/internal/telemetry"
)

// summarizeTrace reads an epang --trace newline-JSON event stream and prints
// per-event-type counts and durations plus a chunk pipeline summary: the
// share of the traced wall each stage of the chunk loop took, and the mean
// length of phase 2's premask runs (patterns updated per range-kernel call).
func summarizeTrace(w io.Writer, path string, printEvents bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	type agg struct {
		count   int
		dur     time.Duration
		maxDur  time.Duration
		queries int
		bytes   int64
	}
	byType := map[string]*agg{}
	var order []string
	var events []telemetry.Event
	var lastTS int64
	var runs, patterns, terms int64

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		a := byType[ev.Ev]
		if a == nil {
			a = &agg{}
			byType[ev.Ev] = a
			order = append(order, ev.Ev)
		}
		a.count++
		a.dur += time.Duration(ev.DurNS)
		if d := time.Duration(ev.DurNS); d > a.maxDur {
			a.maxDur = d
		}
		a.queries += ev.Queries
		a.bytes += ev.Bytes
		if ev.TS > lastTS {
			lastTS = ev.TS
		}
		if ev.Ev == "chunk_place" {
			var r, p, lt int64
			if _, err := fmt.Sscanf(ev.Detail, "phase2_runs=%d phase2_patterns_updated=%d lookup_terms=%d", &r, &p, &lt); err == nil {
				runs, patterns, terms = runs+r, patterns+p, terms+lt
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no trace events", path)
	}

	if printEvents {
		for _, ev := range events {
			fmt.Fprintf(w, "%12.3fms  %-12s chunk=%-4d queries=%-5d dur=%v %s\n",
				float64(ev.TS)/1e6, ev.Ev, ev.Chunk, ev.Queries,
				time.Duration(ev.DurNS).Round(time.Microsecond), ev.Detail)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "trace: %d events over %v\n", len(events), time.Duration(lastTS).Round(time.Millisecond))
	fmt.Fprintf(w, "%-14s %7s %12s %12s %12s %8s\n", "event", "count", "total", "mean", "max", "queries")
	sort.Strings(order)
	for _, ev := range order {
		a := byType[ev]
		mean := time.Duration(0)
		if a.count > 0 {
			mean = a.dur / time.Duration(a.count)
		}
		fmt.Fprintf(w, "%-14s %7d %12v %12v %12v %8d\n", ev, a.count,
			a.dur.Round(time.Microsecond), mean.Round(time.Microsecond),
			a.maxDur.Round(time.Microsecond), a.queries)
	}

	// Stage shares of the traced wall. The engine reads, places and emits
	// each chunk in turn on one goroutine, so the shares sum to at most
	// 100%; the rest is set-up before the first chunk and work between
	// chunks.
	read, place, emit := byType["chunk_read"], byType["chunk_place"], byType["chunk_emit"]
	if read != nil && place != nil && emit != nil && lastTS > 0 {
		wall := time.Duration(lastTS)
		fmt.Fprintf(w, "pipeline: read %.1f%%, place %.1f%%, emit %.1f%% of %v wall\n",
			100*read.dur.Seconds()/wall.Seconds(),
			100*place.dur.Seconds()/wall.Seconds(),
			100*emit.dur.Seconds()/wall.Seconds(),
			wall.Round(time.Millisecond))
	}
	if runs > 0 {
		fmt.Fprintf(w, "phase 2: %d patterns updated in %d premask runs (mean run %.1f patterns)\n",
			patterns, runs, float64(patterns)/float64(runs))
	}
	if terms > 0 {
		fmt.Fprintf(w, "lookup: %d table entries converted to log terms\n", terms)
	}
	return nil
}
