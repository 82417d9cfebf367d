package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runSpread is the noise check behind the bounds in BENCHMARK.json. For each
// workload it runs the timed pass on spreadSeeds consecutive seeds,
// spreadSets times back to back, and prints per end-to-end metric the medians of the sets, the worst gap of
// a later set's median against the first, and each set's spread: the
// distance between the first and third quartile (as Python's
// statistics.quantiles(values, n=4) gives them) as a share of the median.
// It exits non-zero when a spread (setup_s excepted) or a gap exceeds the
// metric's bound, or when any run failed a check — the acceptance rule the
// benchmark's bounds were chosen against.
func runSpread(exe, only string, seed int64, seconds float64) int {
	bad := 0
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		values := make([]map[string][]float64, spreadSets)
		for set := range values {
			values[set] = map[string][]float64{}
			for i := 0; i < spreadSeeds; i++ {
				res, err := runSelf(exe, sp.name, seed+int64(i), seconds, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, seed+int64(i), err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("%-18s seed %d set %d: correct=%v failed=%d of %d\n", sp.name, seed+int64(i), set+1, res.Correct, res.Failed, res.Attempted)
					bad++
				}
				line := fmt.Sprintf("%-18s seed %d set %d:", sp.name, seed+int64(i), set+1)
				for _, name := range endToEndNames {
					values[set][name] = append(values[set][name], res.Metrics[name].Value)
					line += fmt.Sprintf(" %s=%.5g", name, res.Metrics[name].Value)
				}
				fmt.Println(line)
			}
		}
		for _, name := range endToEndNames {
			def := metricDefs[name]
			var medians, spreads []string
			worstGap, worstSpread := 0.0, 0.0
			first := median(values[0][name])
			for set := range values {
				xs := values[set][name]
				med := median(xs)
				q1, q3 := quartiles(xs)
				spread := ratio(q3-q1, med)
				gap := (med - first) / first
				if def.better == "higher" {
					gap = -gap
				}
				worstGap, worstSpread = max(worstGap, gap), max(worstSpread, spread)
				medians = append(medians, fmt.Sprintf("%.5g", med))
				spreads = append(spreads, fmt.Sprintf("%.3f", spread))
			}
			verdict := "ok"
			if worstGap > def.bound || (name != "setup_s" && worstSpread > def.bound) {
				verdict = "EXCEEDS BOUND"
				bad++
			} else if name != "setup_s" && worstSpread > def.bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-18s %-15s medians %-24s gap %.3f  spread %-14s bound %.2f  %s\n",
				sp.name, name, strings.Join(medians, " / "), worstGap, strings.Join(spreads, " / "), def.bound, verdict)
		}
		res, err := runSelf(exe, sp.name, seed, seconds, 1)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: %s traced pass: %v\n", sp.name, err)
			return 1
		case !res.Correct || res.Failed > 0:
			fmt.Printf("%-18s traced pass: correct=%v failed=%d of %d\n", sp.name, res.Correct, res.Failed, res.Attempted)
			bad++
		default:
			fmt.Printf("%-18s traced pass: ok, %d per-layer metrics\n", sp.name, len(res.Metrics))
		}
	}
	if bad > 0 {
		fmt.Printf("%d problem(s)\n", bad)
		return 1
	}
	return 0
}

// runSelf runs one pass in a process of its own, with the driver's
// arguments, and parses the last line of its standard output.
func runSelf(exe, workload string, seed int64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// quartiles returns the first and third quartile by the exclusive method,
// the default of Python's statistics.quantiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
