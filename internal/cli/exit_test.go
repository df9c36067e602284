package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"dew/internal/pool"
	"dew/internal/trace"
)

// TestExitCode pins the error-to-status mapping tool wrappers rely on:
// usage failures are the caller's invocation, the trace taxonomy and
// file-system errors are the input, everything else — including a
// contained panic — is ours.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"usage", usagef("pass -trace FILE"), ExitUsage},
		{"wrapped usage", fmt.Errorf("tool: %w", usagef("bad flag")), ExitUsage},
		{"corrupt", &trace.CorruptError{Format: "din", Line: 3}, ExitInput},
		{"truncated", &trace.TruncatedError{Format: "bin", Offset: 17}, ExitInput},
		{"sentinel corrupt", trace.ErrCorrupt, ExitInput},
		{"wrapped corrupt", fmt.Errorf("ingest: %w", &trace.CorruptError{Format: "bin", Offset: 4}), ExitInput},
		{"path error", &fs.PathError{Op: "open", Path: "missing.din", Err: fs.ErrNotExist}, ExitInput},
		{"plain", errors.New("assoc mismatch"), ExitInternal},
		{"panic", &pool.PanicError{Value: "boom"}, ExitInternal},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestAnalyzeExitClasses runs the analyze tool against real failure
// modes end to end and checks each lands in the right exit class.
func TestAnalyzeExitClasses(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.din")
	if err := os.WriteFile(corrupt, []byte("0 1000\nzz zz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no input", nil, ExitUsage},
		{"bad flag", []string{"-no-such-flag"}, ExitUsage},
		{"corrupt trace", []string{"-trace", corrupt}, ExitInput},
		{"missing file", []string{"-trace", filepath.Join(t.TempDir(), "nope.din")}, ExitInput},
		{"clean run", []string{"-app", "CJPEG", "-n", "2000"}, ExitOK},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		err := Analyze(context.Background(), Env{Stdout: &out, Stderr: &errOut}, tc.args)
		if got := ExitCode(err); got != tc.want {
			t.Errorf("%s: exit %d (err %v), want %d", tc.name, got, err, tc.want)
		}
		if tc.want == ExitInput && err != nil {
			var ce *trace.CorruptError
			var pathErr *fs.PathError
			if !errors.As(err, &ce) && !errors.As(err, &pathErr) {
				t.Errorf("%s: input failure is untyped: %v", tc.name, err)
			}
		}
	}
}

// TestDewSimGzipTruncation: a .din.gz or .dtb.gz trace cut short —
// inside the compressed data or in the gzip trailer — is an input
// error (exit 3) on the materialized and the streamed path alike, and
// no table is printed for the prefix that decoded.
func TestDewSimGzipTruncation(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.din.gz", "t.dtb.gz"} {
		full := filepath.Join(dir, name)
		if _, _, err := run(t, TraceGen, "-app", "CJPEG", "-n", "60000", "-o", full); err != nil {
			t.Fatal(err)
		}
		z, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{len(z) * 3 / 4, len(z) - 4} {
			cut := filepath.Join(dir, "cut-"+name)
			if err := os.WriteFile(cut, z[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, extra := range [][]string{nil, {"-stream-mem", "256KiB"}} {
				args := append([]string{"-trace", cut, "-blocks", "4,16", "-maxlog", "6"}, extra...)
				out, _, err := run(t, DewSim, args...)
				if got := ExitCode(err); got != ExitInput {
					t.Errorf("%s cut to %d of %d bytes %v: exit %d (err %v), want %d", name, n, len(z), extra, got, err, ExitInput)
				}
				if out != "" {
					t.Errorf("%s cut to %d bytes %v: printed output for the decoded prefix:\n%s", name, n, extra, out)
				}
			}
		}
	}
}
