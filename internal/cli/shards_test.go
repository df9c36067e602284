package cli

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dew/internal/trace"
)

// TestShardedFileSources drives the sharded tools over file traces:
// decode, fold and partition share one path with the unsharded run, so
// -shards 4 must print the -shards 1 table for .din and .dtb.gz inputs,
// for a block ladder, a write-policy replay and an exploration whose
// partitions derive from a cache-loaded stream — and a corrupt .din
// must fail the same way under both.
func TestShardedFileSources(t *testing.T) {
	dir := t.TempDir()
	din := filepath.Join(dir, "t.din")
	dtb := filepath.Join(dir, "t.dtb.gz")
	for _, p := range []string{din, dtb} {
		if _, _, err := run(t, TraceGen, "-app", "G721 Enc", "-n", "12000", "-o", p); err != nil {
			t.Fatal(err)
		}
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	for _, path := range []string{din, dtb} {
		for _, args := range [][]string{
			{"-maxlog", "6", "-blocks", "4,16,64"},
			{"-engine", "ref", "-minlog", "6", "-maxlog", "6", "-assoc", "2", "-block", "16", "-write", "wt", "-alloc", "nwa"},
		} {
			args = append([]string{"-trace", path, "-csv"}, args...)
			one, _, err := run(t, DewSim, append(args, "-shards", "1")...)
			if err != nil {
				t.Fatal(err)
			}
			four, _, err := run(t, DewSim, append(args, "-shards", "4")...)
			if err != nil {
				t.Fatal(err)
			}
			if tableOf(four) != tableOf(one) {
				t.Errorf("%v: -shards 4 table differs:\n%s\nvs\n%s", args, tableOf(four), tableOf(one))
			}
			if !strings.Contains(four, "sharded across 4 substreams") {
				t.Errorf("%v: sharded mode not echoed:\n%s", args, four)
			}
			if got, want := lineWith(four, "traffic B=16:"), lineWith(one, "traffic B=16:"); got != want {
				t.Errorf("%v: sharded traffic %q, want %q", args, got, want)
			}
		}
	}

	// Explore: a cold LRU run publishes the finest-rung stream, so the
	// first sharded FIFO run misses the result tier but loads the stream,
	// and every pass replays a partition derived from the loaded stream.
	// The CSV run after it is served from the result tier, with one pass
	// re-simulated live on such a partition.
	cacheDir := filepath.Join(dir, "cache")
	space := []string{"-trace", dtb, "-maxlog-sets", "6", "-maxlog-block", "4", "-maxlog-assoc", "1", "-quiet"}
	afterHeader := func(s string) string { return s[strings.Index(s, "\n\n"):] }
	want, _, err := run(t, Explore, append(space, "-top", "1000")...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(t, Explore, append(space, "-cache", cacheDir, "-policy", "LRU")...); err != nil {
		t.Fatal(err)
	}
	warm, _, err := run(t, Explore, append(space, "-top", "1000", "-cache", cacheDir, "-shards", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "cache load + ") || !strings.Contains(warm, "sharded across 4 trees") {
		t.Errorf("warm sharded explore provenance:\n%s", warm)
	}
	if afterHeader(warm) != afterHeader(want) {
		t.Errorf("warm -shards 4 ranking differs:\n%s\nvs\n%s", afterHeader(warm), afterHeader(want))
	}
	wantCSV, _, err := run(t, Explore, append(space, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	warmCSV, _, err := run(t, Explore, append(space, "-csv", "-cache", cacheDir, "-shards", "4")...)
	if err != nil {
		t.Fatal(err)
	}
	if warmCSV != wantCSV {
		t.Errorf("warm -shards 4 CSV differs:\n%s\nvs\n%s", warmCSV, wantCSV)
	}

	// A corrupt line fails with the input exit code and the same
	// positioned error, sharded or not.
	corrupt := filepath.Join(dir, "corrupt.din")
	if err := os.WriteFile(corrupt, []byte("0 1000\n1 2000\nzz zz\n2 3000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, shards := range []string{"1", "4"} {
		_, _, err := run(t, DewSim, "-trace", corrupt, "-maxlog", "4", "-shards", shards)
		if ExitCode(err) != ExitInput {
			t.Fatalf("-shards %s: exit %d (err %v), want %d", shards, ExitCode(err), err, ExitInput)
		}
		var ce *trace.CorruptError
		if !errors.As(err, &ce) || ce.Line != 3 {
			t.Fatalf("-shards %s: error %v, want a CorruptError at line 3", shards, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("corrupt .din error differs: -shards 1 %q, -shards 4 %q", msgs[0], msgs[1])
	}
}
