package cli

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dew/internal/workload"
)

func TestParseMemBytes(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"100B", 100},
		{"1KiB", 1 << 10},
		{"8MiB", 8 << 20},
		{"8mib", 8 << 20},
		{"2G", 2 << 30},
		{" 4 MiB ", 4 << 20},
	}
	for _, c := range good {
		got, err := parseMemBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseMemBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"", "-1", "8XB", "MiB", "1.5MiB", "9999999999GiB"} {
		if _, err := parseMemBytes(in); err == nil || !IsUsage(err) {
			t.Errorf("parseMemBytes(%q) = %v; want usage error", in, err)
		}
	}
}

// TestDewSimStreamed: the bounded-memory streamed replay must emit the
// same result table as the materialized replay — single block size and
// fold ladder — and echo streamed provenance in the mode line.
func TestDewSimStreamed(t *testing.T) {
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	for _, blocks := range [][]string{
		{"-block", "16"},
		{"-blocks", "8,16,32"},
	} {
		args := append([]string{"-app", "DJPEG", "-n", "12000", "-assoc", "4", "-maxlog", "5", "-csv"}, blocks...)
		mat, _, err := run(t, DewSim, args...)
		if err != nil {
			t.Fatal(err)
		}
		str, _, err := run(t, DewSim, append(args, "-stream-mem", "8MiB")...)
		if err != nil {
			t.Fatal(err)
		}
		if tableOf(str) != tableOf(mat) {
			t.Errorf("%v: streamed table differs from materialized:\n%s\nvs\n%s", blocks, tableOf(str), tableOf(mat))
		}
		if !strings.Contains(str, "streamed, peak ") || !strings.Contains(str, "decode overlapped") {
			t.Errorf("%v: streamed provenance missing from mode line: %q", blocks, str)
		}
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-stream-mem", "1MiB", "-counters"); err == nil || !IsUsage(err) {
		t.Error("-stream-mem with -counters should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-stream-mem", "1MiB", "-shards", "4"); err == nil || !IsUsage(err) {
		t.Error("-stream-mem with -shards should be a usage error")
	}
	if _, _, err := run(t, DewSim, "-app", "CJPEG", "-stream-mem", "zap"); err == nil || !IsUsage(err) {
		t.Error("bad -stream-mem should be a usage error")
	}
}

// TestDewSimStreamedWritePolicy: the kind-preserving write-policy
// replay works through the span pipeline too, traffic lines included.
func TestDewSimStreamedWritePolicy(t *testing.T) {
	args := []string{"-app", "DJPEG", "-n", "10000", "-engine", "ref",
		"-minlog", "6", "-maxlog", "6", "-block", "16", "-write", "wt", "-alloc", "nwa", "-csv"}
	mat, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := run(t, DewSim, append(args, "-stream-mem", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	stripTiming := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "simulated ") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripTiming(str) != stripTiming(mat) {
		t.Errorf("streamed write-policy output differs:\n%s\nvs\n%s", str, mat)
	}
	if !strings.Contains(str, "traffic B=16:") {
		t.Errorf("traffic line missing: %q", str)
	}
}

// TestDewSimStreamedCache: a cold streamed run publishes both store
// tiers through the pipeline (spooled, never re-buffered); the second
// run is fully result-cached with zero stream work.
func TestDewSimStreamedCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-app", "CJPEG", "-n", "8000", "-block", "16", "-maxlog", "4",
		"-cache", dir, "-stream-mem", "4KiB", "-csv"}
	cold, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "streamed, peak ") {
		t.Fatalf("cold run not streamed: %q", cold)
	}
	warm, _, err := run(t, DewSim, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "fully result-cached (0 simulations, 0 trace decodes)") {
		t.Fatalf("second run not fully result-cached: %q", warm)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\nsimulated ")] }
	if tableOf(warm) != tableOf(cold) {
		t.Error("warm table differs from cold streamed run")
	}
	// The stream tier must hold the finest rung: a materialized run on
	// a different ladder rung reuses it as a cache load.
	other, _, err := run(t, DewSim, "-app", "CJPEG", "-n", "8000", "-blocks", "16,32",
		"-maxlog", "4", "-cache", dir, "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(other, "cache load, 0 trace decodes") {
		t.Fatalf("streamed publish not loadable: %q", other)
	}
}

// TestRefSimStreamed: the streamed single-configuration reference
// replay must print the exact statistics of the per-access replay for
// every policy — Random included, whose generator steps once per
// eviction and so survives run compression bit for bit.
func TestRefSimStreamed(t *testing.T) {
	statsOf := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "replay:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	for _, policy := range []string{"FIFO", "LRU", "Random"} {
		args := []string{"-app", "DJPEG", "-n", "15000", "-sets", "64", "-assoc", "2",
			"-block", "16", "-policy", policy, "-write", "wb", "-alloc", "wa"}
		plain, _, err := run(t, RefSim, args...)
		if err != nil {
			t.Fatal(err)
		}
		str, _, err := run(t, RefSim, append(args, "-stream-mem", "2KiB")...)
		if err != nil {
			t.Fatal(err)
		}
		if statsOf(str) != statsOf(plain) {
			t.Errorf("%s: streamed stats differ:\n%s\nvs\n%s", policy, str, plain)
		}
		if !strings.Contains(str, "replay:            streamed (peak ") {
			t.Errorf("%s: streamed provenance missing: %q", policy, str)
		}
	}
	if _, _, err := run(t, RefSim, "-app", "CJPEG", "-stream-mem", "1MiB", "-shards", "4"); err == nil || !IsUsage(err) {
		t.Error("-stream-mem with -shards should be a usage error")
	}
}

// TestExploreStreamed: the exploration's CSV dump must be byte-identical
// across the materialized and streamed schedules, and the human-readable
// mode reports streamed provenance.
func TestExploreStreamed(t *testing.T) {
	args := []string{"-app", "DJPEG", "-n", "10000", "-maxlog-sets", "5",
		"-maxlog-block", "5", "-maxlog-assoc", "2", "-quiet"}
	mat, _, err := run(t, Explore, append(args, "-csv")...)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := run(t, Explore, append(args, "-csv", "-stream-mem", "8MiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if str != mat {
		t.Error("streamed explore CSV differs from materialized")
	}
	human, _, err := run(t, Explore, append(args, "-stream-mem", "8MiB")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(human, "streamed: 1 overlapped decode") || !strings.Contains(human, "stream resident") {
		t.Errorf("streamed provenance missing: %q", human)
	}
	if _, _, err := run(t, Explore, "-app", "CJPEG", "-stream-mem", "1MiB", "-shards", "4"); err == nil || !IsUsage(err) {
		t.Error("-stream-mem with -shards should be a usage error")
	}
}

// TestStreamedReplayMatchesMaterialized is the streamed replay's
// differential test at the tools: seeded workload traces through
// dewsim ladders of 1-4 rungs (write-policy runs on the kind-preserving
// stream included), explore spaces of 1-4 block sizes with kinds on
// and off, and refsim over every policy axis, each with a 16 KiB
// budget, which clamps spans to their 256-run minimum so every replay
// crosses at least 50 spans. The streamed output must equal the
// materialized one byte for byte, timing and provenance lines aside.
// The seed is logged, and every failure names its invocation.
func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	apps := workload.Apps()
	// without drops every line starting with one of the prefixes.
	without := func(out string, prefixes ...string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			drop := false
			for _, p := range prefixes {
				drop = drop || strings.HasPrefix(line, p)
			}
			if !drop {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	ladder := func() string {
		b := 4 << rng.Intn(2)
		var rungs []string
		for n := 1 + rng.Intn(4); len(rungs) < n; b <<= 1 + rng.Intn(2) {
			rungs = append(rungs, fmt.Sprint(b))
		}
		return strings.Join(rungs, ",")
	}
	for i := 0; i < 3; i++ {
		src := []string{"-app", apps[rng.Intn(len(apps))].Name, "-seed", fmt.Sprint(rng.Uint64() % 1000000),
			"-n", fmt.Sprint(60000 + rng.Intn(30000))}
		cases := []struct {
			entry func(context.Context, Env, []string) error
			args  []string
			drop  []string
		}{
			{DewSim, append([]string{"-blocks", ladder(), "-assoc", pick("1", "2", "4"), "-maxlog", "8", "-csv"}, src...),
				[]string{"simulated "}},
			{DewSim, append([]string{"-blocks", ladder(), "-engine", "ref", "-minlog", "5", "-maxlog", "5", "-assoc", "2",
				"-write", pick("wb", "wt"), "-alloc", pick("wa", "nwa"), "-csv"}, src...), []string{"simulated "}},
			{Explore, append([]string{"-maxlog-sets", "6", "-maxlog-block", fmt.Sprint(rng.Intn(4)), "-maxlog-assoc", "2",
				"-workers", pick("1", "2", "3"), "-quiet", "-csv", pick("-kinds", "-quiet")}, src...), nil},
			{RefSim, append([]string{"-sets", "64", "-assoc", "2", "-block", pick("4", "16", "64"),
				"-policy", pick("FIFO", "LRU", "Random"), "-write", pick("wb", "wt"), "-alloc", pick("wa", "nwa")}, src...),
				[]string{"replay:"}},
		}
		for _, c := range cases {
			mat, _, err := run(t, c.entry, c.args...)
			if err != nil {
				t.Fatalf("seed %d, %v: %v", seed, c.args, err)
			}
			str, _, err := run(t, c.entry, append(c.args, "-stream-mem", "16KiB")...)
			if err != nil {
				t.Fatalf("seed %d, %v -stream-mem 16KiB: %v", seed, c.args, err)
			}
			if without(str, c.drop...) != without(mat, c.drop...) {
				t.Errorf("seed %d, %v: streamed output differs from materialized:\n%s\nvs\n%s", seed, c.args, str, mat)
			}
		}
	}
}
