package main

// Run with `cd bench && go vet . && go test .` (the repo's own
// `go test ./...` does not descend into this module). The tests build epang
// and placed from the checkout once, then run a miniature of every workload
// through both passes — the same code paths as the benchmark, at shapes that
// finish in a second each.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var testBin string // epang and placed, built by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchtest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The same builds as run.sh: the programs under test from the repo
	// module, the launcher from this one.
	for _, b := range []struct{ dir, pkgs string }{{"..", "./cmd/epang ./cmd/placed"}, {".", "./launch"}} {
		build := exec.Command("go", append([]string{"build", "-o", dir + string(filepath.Separator)}, strings.Fields(b.pkgs)...)...)
		build.Dir = b.dir
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building", b.pkgs+":", err)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// miniature shrinks a workload to a shape both passes get through in a
// second or two. The two memory-limited workloads keep their tree, alignment
// and chunk size, because the planner regime their budget fraction lands in
// (asserted by measure) depends on all three; only their query count shrinks.
func miniature(sp *spec) *spec {
	mini := *sp
	mini.datasets = 1
	switch {
	case sp.aa:
		mini.leaves, mini.sites, mini.queries = 12, 60, 6
	case sp.memFraction > 0:
		mini.queries = 10
	default:
		mini.leaves, mini.sites, mini.chunk = 24, 120, 20
		if !sp.serve {
			mini.queries = 40
		}
	}
	return &mini
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestIsTheFileAtTheRoot(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from --print-manifest; regenerate it: bash bench/run.sh --print-manifest > BENCHMARK.json")
	}
}

func TestManifestMeetsTheContract(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(manifestJSON()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(manifestJSON()) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(manifestJSON()))
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	direction := func(n, unit, better string) {
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range doc.EndToEnd {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %g, the largest is %g", setupBound, maxBound)
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
	}
	for n := range metricDefs {
		if !seen[n] {
			t.Errorf("metric %s is declared in metricDefs but listed in neither name table", n)
		}
	}
}

// TestMiniatureWorkloads runs both passes of every workload at miniature
// shapes and checks what the driver relies on: the result is correct, carries
// exactly the declared names with their units, no end-to-end value is zero,
// every bypass prediction holds (a broken one makes the traced pass
// incorrect), and the recorded spans nest.
func TestMiniatureWorkloads(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r := newRun(miniature(sp), defaultSeed, 1, testBin, t.TempDir())
				res, err := r.measure(traced, "")
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, r.problems)
				}
				want := endToEndNames
				if traced {
					want = perLayerNames
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s is missing", traced, n)
					case m.Unit != metricDefs[n].unit:
						t.Errorf("%s has unit %q, declared %q", n, m.Unit, metricDefs[n].unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, must never be 0", n, m.Value)
					}
				}
				if traced {
					checkSpans(t, r.tr)
				}
			}
		})
	}
}

// checkSpans: every span is closed, lies inside its parent, and its self
// time (duration minus the union of its children) is between zero and its
// duration — so self times summed over a subtree never exceed its root.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	if len(tr.spans) == 0 {
		t.Fatal("the traced pass recorded no span")
	}
	roots := 0
	for id, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d %s is not closed (start %d end %d)", id, s.Name, s.Start, s.End)
			continue
		}
		if s.Workload != tr.workload {
			t.Errorf("span %d %s carries workload %q", id, s.Name, s.Workload)
		}
		if s.Parent < 0 {
			roots++
		} else if p := tr.spans[s.Parent]; s.Parent >= id || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %d %s [%d,%d]", id, s.Name, s.Start, s.End, s.Parent, p.Name, p.Start, p.End)
		}
		if self := tr.selfTime(id); self < 0 || self > time.Duration(s.End-s.Start) {
			t.Errorf("span %d %s: self time %v outside [0, %v]", id, s.Name, self, time.Duration(s.End-s.Start))
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
}

// TestServeStreamLastsBothPhases: whatever --seconds is, the generated pool
// gives phase B its full count after phase A used everything it may.
func TestServeStreamLastsBothPhases(t *testing.T) {
	sp := specByName("serve-mixed")
	for _, seconds := range []float64{1, 20, 130} {
		for _, traced := range []bool{false, true} {
			r := newRun(sp, defaultSeed, seconds, "", "")
			load := r.load(traced)
			fresh := requestQueries - requestRepeats
			if got := r.numQueries(traced) / fresh; got < load.requests() {
				t.Errorf("seconds=%g traced=%v: pool makes %d requests, the phases need %d", seconds, traced, got, load.requests())
			}
			if load.nB < 1 || load.capA < 1 {
				t.Errorf("seconds=%g traced=%v: empty phase in %+v", seconds, traced, load)
			}
		}
	}
}

// TestQuartilesMatchPython: statistics.quantiles(xs, n=4) on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7, 1, 3, 10, 4, 8, 2, 9, 5, 6}, 2.75, 8.25},
		{[]float64{1.5, 0.2, 9.1, 4.4, 3.3}, 0.85, 6.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
