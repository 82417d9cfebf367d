package model

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a model and rate heterogeneity from a compact spec string
// in the RAxML-NG style:
//
//	JC            Jukes–Cantor
//	K80           Kimura 2-parameter (kappa 2 by default)
//	K80{4}        ... with kappa 4
//	HKY           HKY85 with the given frequencies (or uniform)
//	F81           Felsenstein 81 (frequencies only)
//	TN93          Tamura–Nei (kappaR 2, kappaY 2 by default)
//	TN93{3/5}     ... with explicit kappaR/kappaY
//	GTR           general time-reversible (unit exchangeabilities)
//	GTR{a/b/c/d/e/f}   ... with explicit exchangeabilities (AC/AG/AT/CG/CT/GT)
//	POISSON       20-state uniform amino-acid model
//	SYNAA         the synthetic empirical-like amino-acid model
//
// followed by an optional rate-heterogeneity suffix:
//
//	+G            discrete Gamma, 4 categories, alpha 1
//	+G8           ... 8 categories
//	+G4{0.5}      ... alpha 0.5
//
// freqs supplies stationary frequencies for HKY/GTR (nil = uniform).
func ParseSpec(spec string, freqs []float64) (*Model, *RateHet, error) {
	name := spec
	ratePart := ""
	if i := strings.Index(spec, "+"); i >= 0 {
		name, ratePart = spec[:i], spec[i+1:]
	}
	base, args, err := splitArgs(name)
	if err != nil {
		return nil, nil, err
	}

	nt4 := func() []float64 {
		if freqs != nil {
			return freqs
		}
		return uniformFreqs(4)
	}
	var m *Model
	switch strings.ToUpper(base) {
	case "JC", "JC69":
		m = JC69()
	case "K80":
		kappa := 2.0
		if len(args) == 1 {
			kappa = args[0]
		} else if len(args) > 1 {
			return nil, nil, fmt.Errorf("model: K80 takes at most one parameter (kappa), got %d", len(args))
		}
		m, err = K80(kappa)
	case "HKY", "HKY85":
		kappa := 2.0
		if len(args) == 1 {
			kappa = args[0]
		} else if len(args) > 1 {
			return nil, nil, fmt.Errorf("model: HKY takes at most one parameter (kappa), got %d", len(args))
		}
		m, err = HKY85(nt4(), kappa)
	case "F81":
		if len(args) != 0 {
			return nil, nil, fmt.Errorf("model: F81 takes no parameters")
		}
		m, err = F81(nt4())
	case "TN93":
		kR, kY := 2.0, 2.0
		switch len(args) {
		case 0:
		case 2:
			kR, kY = args[0], args[1]
		default:
			return nil, nil, fmt.Errorf("model: TN93 takes 0 or 2 parameters (kappaR/kappaY), got %d", len(args))
		}
		m, err = TN93(nt4(), kR, kY)
	case "GTR":
		rates := []float64{1, 1, 1, 1, 1, 1}
		if len(args) == 6 {
			rates = args
		} else if len(args) != 0 {
			return nil, nil, fmt.Errorf("model: GTR takes 0 or 6 exchangeabilities, got %d", len(args))
		}
		m, err = GTR(nt4(), rates)
	case "POISSON":
		m = PoissonAA()
	case "SYNAA":
		m = SyntheticAA()
	default:
		return nil, nil, fmt.Errorf("model: unknown model %q", base)
	}
	if err != nil {
		return nil, nil, err
	}

	rates := UniformRates()
	if ratePart != "" {
		rates, err = parseRateSpec(ratePart)
		if err != nil {
			return nil, nil, err
		}
	}
	return m, rates, nil
}

// splitArgs parses "NAME{a/b/c}" into the name and numeric arguments.
func splitArgs(s string) (string, []float64, error) {
	open := strings.Index(s, "{")
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("model: unterminated parameter list in %q", s)
	}
	name := s[:open]
	body := s[open+1 : len(s)-1]
	var args []float64
	for _, tok := range strings.Split(body, "/") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return "", nil, fmt.Errorf("model: invalid parameter %q in %q", tok, s)
		}
		args = append(args, v)
	}
	return name, args, nil
}

// MaxGammaCategories caps a spec's Gamma category count: every CLV is that
// many rates wide, so a crafted reference database could exhaust memory.
const MaxGammaCategories = 32

// parseRateSpec parses "G", "G8", "G4{0.5}".
func parseRateSpec(s string) (*RateHet, error) {
	if !strings.HasPrefix(strings.ToUpper(s), "G") {
		return nil, fmt.Errorf("model: unknown rate heterogeneity %q (only +G is supported)", s)
	}
	rest, args, err := splitArgs(s)
	if err != nil {
		return nil, err
	}
	cats := 4
	if digits := rest[1:]; digits != "" {
		cats, err = strconv.Atoi(digits)
		if err != nil || cats < 1 || cats > MaxGammaCategories {
			return nil, fmt.Errorf("model: invalid Gamma category count in %q (1 to %d)", s, MaxGammaCategories)
		}
	}
	alpha := 1.0
	if len(args) == 1 {
		alpha = args[0]
	} else if len(args) > 1 {
		return nil, fmt.Errorf("model: +G takes at most one parameter (alpha), got %d", len(args))
	}
	return GammaRates(alpha, cats)
}
