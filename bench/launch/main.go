// Command launch runs one program and, after it exits, prints one JSON line
// on standard output saying how long it ran and what its max-RSS was. It
// exists because of how Linux fills ru_maxrss: a child started with a
// vfork-style clone (what Go's os/exec does) begins life on its parent's
// address space, and exec carries that space's high-water mark over into the
// child's figure. Started straight from the benchmark harness, which holds
// whole datasets, a 22 MiB epang run reported the harness's 26 MiB. This
// process stays at about 2 MiB, below any program it measures.
//
// The program's standard output, standard error and exit code pass through,
// and SIGTERM and SIGINT are handed on to it, so the harness drives a server
// through launch exactly as it would directly.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: launch program [args...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// The program must not outlive this process, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(127)
	}
	go func() { // ends with the process, right after the program does
		for s := range sigs {
			cmd.Process.Signal(s)
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(127)
	}
	var maxRSSKiB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSKiB = ru.Maxrss // Linux reports KiB
	}
	json.NewEncoder(os.Stdout).Encode(struct {
		WallNS    int64 `json:"wall_ns"`
		MaxRSSKiB int64 `json:"max_rss_kib"`
	}{wall.Nanoseconds(), maxRSSKiB})
	os.Exit(cmd.ProcessState.ExitCode())
}
