package main

import "encoding/json"

// runSeconds is the measurement time BENCHMARK.json asks the driver to pass
// as --seconds. With the no-op rebuild, input generation, reference runs and
// checks an invocation takes about 22 s, so the driver's 4 + 22 × 5
// invocations and two builds use about three quarters of its 3420 s cap.
const runSeconds = 20

// manifestJSON is BENCHMARK.json as the tables in spec.go define it;
// bench_test.go holds the file at the root of the repo to it.
func manifestJSON() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []endToEnd      `json:"end_to_end"`
		PerLayer   []perLayer      `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workloadEntry{sp.name, sp.why})
	}
	for _, n := range endToEndNames {
		d := metricDefs[n]
		doc.EndToEnd = append(doc.EndToEnd, endToEnd{n, d.unit, d.better, d.bound})
	}
	for _, n := range perLayerNames {
		d := metricDefs[n]
		doc.PerLayer = append(doc.PerLayer, perLayer{n, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(out, '\n')
}
