package model

import (
	"math"
	"testing"
)

func TestParseSpecBasics(t *testing.T) {
	cases := []struct {
		spec   string
		states int
		nrates int
	}{
		{"JC", 4, 1},
		{"jc69", 4, 1},
		{"K80", 4, 1},
		{"K80{4.5}", 4, 1},
		{"HKY", 4, 1},
		{"GTR", 4, 1},
		{"GTR{1/2/3/4/5/6}", 4, 1},
		{"POISSON", 20, 1},
		{"SYNAA", 20, 1},
		{"JC+G", 4, 4},
		{"GTR+G8", 4, 8},
		{"GTR+G4{0.5}", 4, 4},
	}
	for _, c := range cases {
		m, r, err := ParseSpec(c.spec, nil)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if m.States() != c.states {
			t.Errorf("%q: states = %d, want %d", c.spec, m.States(), c.states)
		}
		if r.NumRates() != c.nrates {
			t.Errorf("%q: rates = %d, want %d", c.spec, r.NumRates(), c.nrates)
		}
	}
}

func TestParseSpecParameters(t *testing.T) {
	// K80 with a large kappa must show transition bias.
	m, _, err := ParseSpec("K80{10}", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 16)
	m.TransitionMatrix(p, 0.1, 1)
	if p[0*4+2] <= p[0*4+1] {
		t.Fatal("K80{10} lost its transition bias")
	}
	// Gamma alpha propagates: smaller alpha = more heterogeneous rates.
	_, rLow, err := ParseSpec("JC+G4{0.2}", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rHigh, err := ParseSpec("JC+G4{20}", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rLow.Rates[0] >= rHigh.Rates[0] {
		t.Fatalf("alpha ordering wrong: %v vs %v", rLow.Rates, rHigh.Rates)
	}
}

func TestParseSpecFreqs(t *testing.T) {
	freqs := []float64{0.4, 0.1, 0.1, 0.4}
	m, _, err := ParseSpec("GTR", freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range m.Freqs() {
		if math.Abs(f-freqs[i]) > 1e-12 {
			t.Fatalf("freqs not applied: %v", m.Freqs())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"", "WAG", "GTR{1/2}", "K80{1/2}", "HKY{1/2/3}", "JC+R4",
		"GTR{1/2/3/4/5/x}", "JC+G{1/2}", "JC+Gx", "GTR{1/2/3",
		"JC+G2000000000",
	} {
		if _, _, err := ParseSpec(bad, nil); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestTN93AndF81(t *testing.T) {
	m, _, err := ParseSpec("TN93{6/2}", []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 16)
	m.TransitionMatrix(p, 0.1, 1)
	// Purine transition (A->G) outpaces pyrimidine transition (C->T) with
	// kappaR > kappaY (frequencies chosen symmetric so the comparison is
	// clean: piG == piT).
	if p[0*4+2] <= p[1*4+3] {
		t.Fatalf("TN93 kappaR bias lost: A->G %g vs C->T %g", p[0*4+2], p[1*4+3])
	}
	if _, _, err := ParseSpec("TN93{1}", nil); err == nil {
		t.Fatal("TN93 with 1 arg accepted")
	}
	f81, _, err := ParseSpec("F81", []float64{0.4, 0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f81.TransitionMatrix(p, 100, 1)
	for j, want := range []float64{0.4, 0.1, 0.2, 0.3} {
		if math.Abs(p[j]-want) > 1e-6 {
			t.Fatalf("F81 stationary distribution wrong: %v", p[:4])
		}
	}
	if _, _, err := ParseSpec("F81{1}", nil); err == nil {
		t.Fatal("F81 with args accepted")
	}
}
