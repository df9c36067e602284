package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one CLI run as the host saw it, read from the child's
// rusage: wall time from start to reaped exit, user plus system CPU,
// and the maximum resident set size. scale takes its times to the
// reference host speed (see probe.go).
type sample struct {
	wall, cpu, rssMiB, scale float64
}

// runner starts the measured CLIs as child processes, one at a time.
type runner struct {
	bin string   // directory holding the built CLIs
	env []string // child environment
	// floorMiB is the highest resident size of this process at a child's
	// start: no child's max RSS can read below it (see resetPeakRSS).
	floorMiB float64
}

func newRunner(bin, tmp string) *runner {
	var env []string
	for _, kv := range os.Environ() {
		// DEW_CACHE would silently turn on the artifact store for the
		// cold workloads; TMPDIR is pinned inside the checkout.
		if strings.HasPrefix(kv, "DEW_CACHE=") || strings.HasPrefix(kv, "TMPDIR=") {
			continue
		}
		env = append(env, kv)
	}
	return &runner{bin: bin, env: append(env, "TMPDIR="+tmp)}
}

// run executes tool with args, waits for it to exit and returns its
// standard output and resource sample. A non-zero exit is an error
// carrying the tail of the child's standard error.
func (r *runner) run(ctx context.Context, tool string, args ...string) ([]byte, sample, error) {
	r.floorMiB = max(r.floorMiB, resetPeakRSS())
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, tool), args...)
	cmd.Env = r.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = "..." + msg[len(msg)-400:]
		}
		return nil, sample{}, fmt.Errorf("%s %s: %w: %s", tool, strings.Join(args, " "), err, msg)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, sample{}, fmt.Errorf("%s: no rusage for the child", tool)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return stdout.Bytes(), sample{
		wall:   wall.Seconds(),
		cpu:    cpu.Seconds(),
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

// resetPeakRSS shrinks this process to its live heap and lowers its
// peak-RSS mark to the current RSS, which it returns in MiB. Linux seeds
// a child's max RSS at exec with the parent's peak RSS, so without the
// reset every child started after a traced iteration would report the
// harness's peak instead of its own.
func resetPeakRSS() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.Write([]byte("5")) // best effort: floorMiB records what remains
		f.Close()
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024
		}
	}
	return 0
}
