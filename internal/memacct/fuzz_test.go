package memacct

import "testing"

// FuzzParseBytes: a size string from the command line never panics the
// parser, and an accepted one is never negative — a negative ceiling is what
// an int64 overflow used to hand the planner with a nil error.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"123", "4G", "4GiB", "1.5g", " 10M ", "42B", "-5M", "1e30", "1e19",
		"9999999999G", "9223372036854774784", "9223372036854775807", "8589934591G", "NaN", "inf", "0x10M", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if v, err := ParseBytes(s); err == nil && v < 0 {
			t.Fatalf("ParseBytes(%q) = %d with a nil error", s, v)
		}
	})
}
