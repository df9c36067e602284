package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
)

// workload is one set of generated inputs and the CLI invocation the
// benchmark times over them.
type workload struct {
	name     string
	app      string // tracegen workload model
	accesses uint64 // trace length
	ext      string // trace file format, by suffix
	tool     string // measured CLI
	// measured is the timed invocation; reference is the set-up
	// invocation whose table every measured run must reproduce byte for
	// byte.
	measured, reference func(fx *fixture) []string
	// blocks (ascending) and assocs give the DEW passes of the measured
	// invocation: one per (block, assoc) pair.
	blocks, assocs []int
	// space is what explore.Run schedules in the traced run: the
	// measured space for explore, the passes' block range for dewsim.
	space cache.ParamSpace
	// wayCmp counts the paper's way comparisons on the first pass in
	// the traced run.
	wayCmp bool
}

// pass is one DEW pass: every set count at one block size and
// associativity, plus the direct-mapped results.
type pass struct{ block, assoc int }

func (w *workload) passes() []pass {
	var out []pass
	for _, b := range w.blocks {
		for _, a := range w.assocs {
			out = append(out, pass{b, a})
		}
	}
	return out
}

// exploreArgs is space_cold's invocation: the CLI's default
// space (the paper's Table 1, 525 configurations in 28 DEW passes) with
// two pass workers, one per core of the 2-CPU reference host.
func exploreArgs(fx *fixture) []string {
	return []string{"-trace", fx.trace, "-csv", "-quiet", "-workers", "2"}
}

// Stream budget of ladder_stream, and of every traced streamed replay.
const (
	streamMem      = "8MiB"
	streamMemBytes = 8 << 20
)

// dewsimSpace is the explore space over dewsim's default pass
// (associativity 4, set counts 1..16384) at block sizes 2^lo..2^hi.
func dewsimSpace(lo, hi int) cache.ParamSpace {
	return cache.ParamSpace{MaxLogSets: 14, MinLogBlock: lo, MaxLogBlock: hi, MinLogAssoc: 2, MaxLogAssoc: 2}
}

var workloads = []*workload{
	{
		name: "space_cold", app: "MPEG2 Enc", accesses: 250_000, ext: ".dtb.gz", tool: "explore",
		measured: exploreArgs, reference: exploreArgs,
		blocks: cache.PaperSpace().BlockSizes(), assocs: []int{2, 4, 8, 16}, space: cache.PaperSpace(),
	},
	{
		name: "pass_din", app: "G721 Dec", accesses: 4_000_000, ext: ".din", tool: "dewsim",
		measured:  dewsimArgs,
		reference: dewsimArgs,
		blocks:    []int{32}, assocs: []int{4}, space: dewsimSpace(5, 5), wayCmp: true,
	},
	{
		name: "ladder_stream", app: "G721 Dec", accesses: 4_000_000, ext: ".din", tool: "dewsim",
		measured: func(fx *fixture) []string {
			return []string{"-trace", fx.trace, "-blocks", "4,16,64", "-stream-mem", streamMem, "-csv"}
		},
		reference: func(fx *fixture) []string { // the materialized ladder
			return []string{"-trace", fx.trace, "-blocks", "4,16,64", "-csv"}
		},
		blocks: []int{4, 16, 64}, assocs: []int{4}, space: dewsimSpace(2, 6),
	},
}

// dewsimArgs is pass_din's invocation: dewsim's defaults, one DEW pass
// at block 32 and associativity 4 over set counts 1..16384.
func dewsimArgs(fx *fixture) []string { return []string{"-trace", fx.trace, "-csv"} }

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fixture is one set-up's generated inputs and expected outputs.
type fixture struct {
	trace    string // generated trace file
	accesses uint64
	golden   []byte // the reference invocation's table
	order    []cache.Config
	rows     map[cache.Config]cache.Stats
}

// oracleSample is how many configurations of each golden table are
// re-simulated by refsim at set-up.
const oracleSample = 6

// setUp generates the workload's trace with tracegen, records the
// golden table, and checks a seeded sample of the golden against
// refsim. It returns the number of sampled configurations whose miss
// count differs from refsim.
func setUp(ctx context.Context, r *runner, w *workload, seed, accesses uint64, dir string) (*fixture, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	fx := &fixture{trace: filepath.Join(dir, "trace"+w.ext), accesses: accesses}
	if _, _, err := r.run(ctx, "tracegen", "-app", w.app, "-n", strconv.FormatUint(accesses, 10),
		"-seed", strconv.FormatUint(seed, 10), "-o", fx.trace); err != nil {
		return nil, 0, err
	}
	out, _, err := r.run(ctx, w.tool, w.reference(fx)...)
	if err != nil {
		return nil, 0, err
	}
	fx.golden = tableOf(out)
	if fx.order, fx.rows, err = parseTable(fx.golden); err != nil {
		return nil, 0, fmt.Errorf("golden table: %w", err)
	}
	for _, cfg := range fx.order {
		if fx.rows[cfg].Accesses != accesses {
			return nil, 0, fmt.Errorf("golden table: %v answers %d accesses, the trace has %d", cfg, fx.rows[cfg].Accesses, accesses)
		}
	}
	mismatches, err := checkOracle(fx, seed)
	return fx, mismatches, err
}

// tableOf returns a CLI's CSV table: its standard output up to the
// first blank line, which drops dewsim's timing and provenance footer.
func tableOf(out []byte) []byte {
	if i := bytes.Index(out, []byte("\n\n")); i >= 0 {
		return out[:i+1]
	}
	return out
}

// parseTable reads the sets, assoc, block, accesses and misses columns
// of a CLI's CSV table.
func parseTable(tbl []byte) ([]cache.Config, map[cache.Config]cache.Stats, error) {
	recs, err := csv.NewReader(bytes.NewReader(tbl)).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) < 2 {
		return nil, nil, fmt.Errorf("no rows")
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	want := []string{"sets", "assoc", "block", "accesses", "misses"}
	for _, h := range want {
		if _, ok := col[h]; !ok {
			return nil, nil, fmt.Errorf("no %q column", h)
		}
	}
	order := make([]cache.Config, 0, len(recs)-1)
	rows := make(map[cache.Config]cache.Stats, len(recs)-1)
	for _, rec := range recs[1:] {
		var v [5]uint64
		for i, h := range want {
			if v[i], err = strconv.ParseUint(rec[col[h]], 10, 64); err != nil {
				return nil, nil, fmt.Errorf("column %s: %w", h, err)
			}
		}
		cfg := cache.Config{Sets: int(v[0]), Assoc: int(v[1]), BlockSize: int(v[2])}
		if _, dup := rows[cfg]; dup {
			return nil, nil, fmt.Errorf("configuration %v listed twice", cfg)
		}
		order = append(order, cfg)
		rows[cfg] = cache.Stats{Accesses: v[3], Misses: v[4]}
	}
	return order, rows, nil
}

// checkOracle replays the raw trace once, access by access, through one
// refsim simulator per sampled configuration and counts the sampled
// golden rows whose accesses or misses differ.
func checkOracle(fx *fixture, seed uint64) (int, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6f7261636c65))
	pick := rng.Perm(len(fx.order))[:min(oracleSample, len(fx.order))]
	sims := make([]*refsim.Simulator, len(pick))
	for i, p := range pick {
		s, err := refsim.New(fx.order[p], cache.FIFO)
		if err != nil {
			return 0, err
		}
		sims[i] = s
	}
	r, closer, err := trace.OpenFile(fx.trace)
	if err != nil {
		return 0, err
	}
	defer closer.Close()
	if err := trace.Drain(r, func(batch []trace.Access) {
		for _, s := range sims {
			for _, a := range batch {
				s.Access(a)
			}
		}
	}); err != nil {
		return 0, err
	}
	mismatches := 0
	for i, p := range pick {
		cfg := fx.order[p]
		got, want := sims[i].Stats().Stats, fx.rows[cfg]
		if got != want {
			mismatches++
			fmt.Fprintf(os.Stderr, "perfbench: oracle mismatch at %v (seed %d): table %d accesses %d misses, refsim %d accesses %d misses\n",
				cfg, seed, want.Accesses, want.Misses, got.Accesses, got.Misses)
		}
	}
	return mismatches, nil
}
