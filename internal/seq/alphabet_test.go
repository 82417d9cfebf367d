package seq

import (
	"math/bits"
	"testing"
)

func TestDNABasics(t *testing.T) {
	if DNA.States() != 4 {
		t.Fatalf("DNA states = %d", DNA.States())
	}
	for i, c := range []byte{'A', 'C', 'G', 'T'} {
		m, err := DNA.Code(c)
		if err != nil {
			t.Fatal(err)
		}
		if m != 1<<uint(i) {
			t.Fatalf("Code(%q) = %b, want %b", c, m, 1<<uint(i))
		}
	}
}

func TestDNALowercase(t *testing.T) {
	up, err := DNA.Code('G')
	if err != nil {
		t.Fatal(err)
	}
	lo, err := DNA.Code('g')
	if err != nil {
		t.Fatal(err)
	}
	if up != lo {
		t.Fatalf("case sensitivity: %b vs %b", up, lo)
	}
}

func TestDNAUEqualsT(t *testing.T) {
	u, _ := DNA.Code('U')
	tt, _ := DNA.Code('T')
	if u != tt {
		t.Fatalf("U (%b) != T (%b)", u, tt)
	}
}

func TestDNAAmbiguityCodes(t *testing.T) {
	cases := map[byte]int{'R': 2, 'Y': 2, 'S': 2, 'W': 2, 'K': 2, 'M': 2, 'B': 3, 'D': 3, 'H': 3, 'V': 3, 'N': 4}
	for c, want := range cases {
		m, err := DNA.Code(c)
		if err != nil {
			t.Fatalf("Code(%q): %v", c, err)
		}
		if got := bits.OnesCount32(m); got != want {
			t.Errorf("Code(%q) has %d states, want %d", c, got, want)
		}
	}
}

func TestDNAGaps(t *testing.T) {
	for _, c := range []byte{'-', '?', 'N', '.', 'X'} {
		m, err := DNA.Code(c)
		if err != nil {
			t.Fatalf("Code(%q): %v", c, err)
		}
		if m != DNA.GapMask() {
			t.Errorf("Code(%q) = %b, want gap mask %b", c, m, DNA.GapMask())
		}
	}
	if m, _ := DNA.Code('A'); m == DNA.GapMask() {
		t.Error("Code('A') is the gap mask")
	}
}

func TestDNAInvalid(t *testing.T) {
	for _, c := range []byte{'!', '1', 'E', ' '} {
		if _, err := DNA.Code(c); err == nil {
			t.Errorf("Code(%q) accepted", c)
		}
	}
}

func TestAABasics(t *testing.T) {
	if AA.States() != 20 {
		t.Fatalf("AA states = %d", AA.States())
	}
	seen := map[uint32]bool{}
	for i := 0; i < 20; i++ {
		c := AA.Symbol(i)
		m, err := AA.Code(c)
		if err != nil {
			t.Fatalf("Code(%q): %v", c, err)
		}
		if bits.OnesCount32(m) != 1 {
			t.Fatalf("canonical AA %q not a single state", c)
		}
		if seen[m] {
			t.Fatalf("duplicate mask for %q", c)
		}
		seen[m] = true
	}
}

func TestAAAmbiguity(t *testing.T) {
	b, _ := AA.Code('B')
	n, _ := AA.Code('N')
	d, _ := AA.Code('D')
	if b != n|d {
		t.Errorf("B mask %b != N|D %b", b, n|d)
	}
	z, _ := AA.Code('Z')
	q, _ := AA.Code('Q')
	e, _ := AA.Code('E')
	if z != q|e {
		t.Errorf("Z mask %b != Q|E %b", z, q|e)
	}
	x, _ := AA.Code('X')
	if x != AA.GapMask() {
		t.Errorf("X mask %b != gap", x)
	}
}

func TestEncode(t *testing.T) {
	enc, err := DNA.Encode([]byte("ACGT-N"))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 4, 8, 15, 15}
	for i, w := range want {
		if enc[i] != w {
			t.Errorf("Encode[%d] = %b, want %b", i, enc[i], w)
		}
	}
	if _, err := DNA.Encode([]byte("AC!T")); err == nil {
		t.Error("Encode accepted invalid character")
	}
}
