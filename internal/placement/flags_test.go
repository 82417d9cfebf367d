package placement

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
)

// cliTools are the binaries that bind engine flags; each commits the golden
// of its whole flag surface under cmd/<tool>/testdata.
var cliTools = []string{"epang", "placed", "pewo"}

// toolEngineFlags returns the engine flags a tool exposes: the rows of its
// committed flag-surface golden whose name and default are a row of the one
// table. (pewo's --threads, a thread-sweep list defaulting to "1,2,4,8,16,32",
// is its own flag, not the engine option of that name.)
func toolEngineFlags(t *testing.T, tool string) []string {
	t.Helper()
	data, err := os.ReadFile("../../cmd/" + tool + "/testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var names []string
	for _, f := range engineFlags {
		if strings.Contains("\n"+string(data), fmt.Sprintf("\n%s=%q\n", f.name, f.value(&cfg).String())) {
			names = append(names, f.name)
		}
	}
	return names
}

// exposedFlags maps every tool to its engine flags.
func exposedFlags(t *testing.T) map[string][]string {
	exposed := map[string][]string{}
	for _, tool := range cliTools {
		exposed[tool] = toolEngineFlags(t, tool)
	}
	return exposed
}

// flagName returns the flag an argument row sets ("--dedup=false" → "dedup").
func flagName(arg []string) string {
	return strings.TrimLeft(strings.SplitN(arg[0], "=", 2)[0], "-")
}

// parseWith binds names onto a fresh flag set over DefaultConfig and parses
// the arguments that belong to those names.
func parseWith(names []string, args [][]string) (Config, error) {
	cfg := DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs, &cfg, names...)
	var argv []string
	for _, a := range args {
		if slices.Contains(names, flagName(a)) {
			argv = append(argv, a...)
		}
	}
	return cfg, fs.Parse(argv)
}

// TestFlagsRoundTrip sets every engine flag to a non-default value: each must
// land in exactly its Config field, and the binding of one tool must yield
// the same Config as another's for the flags both expose.
func TestFlagsRoundTrip(t *testing.T) {
	args := [][]string{
		{"--maxmem", "3M"}, {"--chunk-size", "77"}, {"--block-size", "9"}, {"--threads", "3"},
		{"--no-heur"}, {"--strict"}, {"--scoring", "bayes"}, {"--edpl"}, {"--bayes-pendant-nodes", "11"},
		{"--bayes-proximal-nodes", "2"}, {"--clv-spill=spill"},
		{"--clv-spill-path", "/tmp/x.spill"}, {"--sync-precompute"},
	}
	if len(args) != len(engineFlags) {
		t.Fatalf("%d argument rows for %d engine flags", len(args), len(engineFlags))
	}
	var all []string
	for _, f := range engineFlags {
		all = append(all, f.name)
	}
	got, err := parseWith(all, args)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.MaxMem, want.ChunkSize, want.BlockSize, want.Threads = 3<<20, 77, 9, 3
	want.DisableLookup = true
	want.Strict, want.Scoring, want.EDPL = true, ScoringBayes, true
	want.BayesPendantNodes, want.BayesProximalNodes = 11, 2
	want.SpillPolicy, want.SpillPath = core.SpillOnly{}, "/tmp/x.spill"
	want.SyncPrecompute = true
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("all flags:\n got %+v\nwant %+v", got, want)
	}

	// No flag given: the bound Config is still DefaultConfig.
	if got, err := parseWith(all, nil); err != nil || !reflect.DeepEqual(got, DefaultConfig()) {
		t.Fatalf("no flags: %+v, %v", got, err)
	}

	// Each tool's subset leaves the fields of the flags it lacks at their
	// defaults, so on the shared flags two tools must agree field for field.
	epang, placed := toolEngineFlags(t, "epang"), toolEngineFlags(t, "placed")
	var shared [][]string
	for _, a := range args {
		if slices.Contains(epang, flagName(a)) && slices.Contains(placed, flagName(a)) {
			shared = append(shared, a)
		}
	}
	if len(shared) != len(placed) {
		t.Fatalf("placed exposes %d engine flags, %d of them shared with epang", len(placed), len(shared))
	}
	viaEpang, err1 := parseWith(epang, shared)
	viaPlaced, err2 := parseWith(placed, shared)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(viaEpang, viaPlaced) {
		t.Fatalf("same arguments, different configs:\n epang  %+v (%v)\n placed %+v (%v)", viaEpang, err1, viaPlaced, err2)
	}
}

// TestFlagsRejectOutOfRange: values Config.withDefaults would quietly turn
// into defaults are usage errors at the command line of every tool that
// exposes the flag; 0 stays "auto" where the help text says so.
func TestFlagsRejectOutOfRange(t *testing.T) {
	exposed := exposedFlags(t)
	for _, tc := range []struct {
		flag, value string
		bad         bool
	}{
		{"threads", "0", true}, {"threads", "-2", true}, {"threads", "two", true},
		{"chunk-size", "0", true}, {"chunk-size", "-1", true},
		{"block-size", "0", true},
		{"bayes-pendant-nodes", "-1", true}, {"bayes-pendant-nodes", "0", false},
		{"bayes-proximal-nodes", "-1", true}, {"bayes-proximal-nodes", "0", false},
		{"maxmem", "-5M", true}, {"maxmem", "lots", true}, {"maxmem", "1e30", true}, {"maxmem", "", false},
		{"scoring", "map", true}, {"clv-spill", "sometimes", true},
		{"strict", "maybe", true},
	} {
		bound := 0
		for _, tool := range cliTools {
			names := exposed[tool]
			if !slices.Contains(names, tc.flag) {
				continue
			}
			bound++
			_, err := parseWith(names, [][]string{{"--" + tc.flag + "=" + tc.value}})
			if tc.bad && (err == nil || !strings.Contains(err.Error(), "-"+tc.flag)) {
				t.Errorf("%s --%s=%q: err = %v, want a usage error naming the flag", tool, tc.flag, tc.value, err)
			}
			if !tc.bad && err != nil {
				t.Errorf("%s --%s=%q: %v", tool, tc.flag, tc.value, err)
			}
		}
		if bound == 0 {
			t.Errorf("no tool exposes --%s", tc.flag)
		}
	}
}

// TestREADMEFlagReference keeps README's engine-flag list generated from the
// one table: name, default, the tools that expose the flag, and the help text.
func TestREADMEFlagReference(t *testing.T) {
	cfg := DefaultConfig()
	exposed := exposedFlags(t)
	var want strings.Builder
	for _, f := range engineFlags {
		var tools []string
		for _, tool := range cliTools {
			if slices.Contains(exposed[tool], f.name) {
				tools = append(tools, tool)
			}
		}
		def := f.value(&cfg).String()
		if def == "" {
			def = "empty"
		}
		fmt.Fprintf(&want, "- `--%s` (default %s; %s): %s\n", f.name, def, strings.Join(tools, ", "), f.help)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- engine-flags:begin -->\n", "<!-- engine-flags:end -->"
	i, j := strings.Index(string(readme), begin), strings.Index(string(readme), end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %q … %q block", begin, end)
	}
	if got := string(readme[i+len(begin) : j]); got != want.String() {
		t.Fatalf("README.md engine-flag block is stale; replace it with:\n%s", want.String())
	}
}

// TestExitCodeClasses pins the documented exit-code mapping.
func TestExitCodeClasses(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errors.New("generic"), 1},
		{fmt.Errorf("audit: %w", core.ErrInvariant), 2},
		{fmt.Errorf("audit: %w", memacct.ErrNotDrained), 2},
		{fmt.Errorf("run: %w", memacct.ErrOvercommit), 2},
		{context.Canceled, 130},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
