package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"--list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"--scale", "64", "--reps", "1", "--max-queries", "30", "--threads", "1", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"--scale", "64", "--reps", "1", "--max-queries", "30", "--csv", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no experiment accepted")
	}
	if err := run([]string{"bogus-experiment"}); err == nil {
		t.Error("bogus experiment accepted")
	}
	if err := run([]string{"--threads", "0,x", "table1"}); err == nil {
		t.Error("bogus thread sweep accepted")
	}
	if err := run([]string{"--datasets", "nope", "table2"}); err == nil {
		t.Error("bogus dataset accepted")
	}
}

// TestFlagSurfaceGolden pins pewo's flag names and defaults. The golden was
// dumped from the parent of the change that introduced the shared binder; its
// only diffs since are the one flag that change deleted and --scoring's
// default rendering as "ml" (it was "", which meant ml).
func TestFlagSurfaceGolden(t *testing.T) {
	fs, _ := newFlags()
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%q\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("flag surface changed:\n%s\nwant:\n%s", got.String(), want)
	}
}
