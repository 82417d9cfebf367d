package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"phylomem/internal/phylo"
	"phylomem/internal/pplacer"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

// schemaPaths appends one "path type" line per JSON value under v. Object
// keys extend the path with ".key"; an array contributes "[]" and the shape
// of its first element (the documents' arrays are homogeneous).
func schemaPaths(out []string, path string, v any) []string {
	switch x := v.(type) {
	case map[string]any:
		out = append(out, path+" object")
		for k, e := range x {
			out = schemaPaths(out, path+"."+k, e)
		}
	case []any:
		out = append(out, path+" array")
		if len(x) > 0 {
			out = schemaPaths(out, path+"[]", x[0])
		}
	case string:
		out = append(out, path+" string")
	case float64:
		out = append(out, path+" number")
	case bool:
		out = append(out, path+" bool")
	default:
		out = append(out, path+" null")
	}
	return out
}

// schemaOf marshals doc and renders its sorted key paths under name.
func schemaOf(t *testing.T, name string, doc any) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	lines := schemaPaths(nil, name, v)
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestReportSchemaGolden pins the key paths and JSON types of the three
// report documents — placement.Report, pplacer.Report and the placed /metrics
// document — to testdata/report_schema.golden, which was generated from the
// code before the counters moved out of the telemetry sink (commit d703714).
// Comparing every build against that fixed point subsumes comparing the
// variants of one build (thread counts, scoring modes) against each other:
// the key set depends on the code version only. A deliberate
// schema change regenerates the file and bumps telemetry.SchemaVersion on a
// rename or removal.
func TestReportSchemaGolden(t *testing.T) {
	fx := newTestFixture(t, fixtureOptions{})
	if resp, data := fx.post(t, fx.queryFasta(3, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d: %s", resp.StatusCode, data)
	}

	ref, _ := testReference(t, 11, 8, 60)
	comp, err := seq.Compress(ref.MSA)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(ref.Model, ref.Rates, comp, ref.Tree)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pplacer.New(part, ref.Tree, pplacer.Config{Telemetry: telemetry.NewSink()})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()

	got := schemaOf(t, "placement", fx.eng.Report()) +
		schemaOf(t, "pplacer", pp.Report()) +
		schemaOf(t, "metrics", fx.srv.metrics())

	const golden = "testdata/report_schema.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report schema differs from %s:\n%s%s", golden, onlyIn(string(want), got, "- "), onlyIn(got, string(want), "+ "))
	}
}

// onlyIn lists, each prefixed with sign, the lines of a that b lacks.
func onlyIn(a, b, sign string) string {
	have := map[string]bool{}
	for _, l := range strings.Split(b, "\n") {
		have[l] = true
	}
	var sb strings.Builder
	for _, l := range strings.Split(a, "\n") {
		if !have[l] {
			sb.WriteString(sign + l + "\n")
		}
	}
	return sb.String()
}
