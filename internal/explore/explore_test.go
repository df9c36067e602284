package explore

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/workload"
)

func smallSpace() cache.ParamSpace {
	return cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: 5,
		MinLogBlock: 0, MaxLogBlock: 3,
		MinLogAssoc: 0, MaxLogAssoc: 2,
	}
}

func randomTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = trace.Access{Addr: uint64(rng.Int63n(1 << 12)), Kind: trace.Kind(rng.Intn(3))}
	}
	return tr
}

func TestRunCoversSpaceExactly(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(5000, 1)
	res, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != space.Count() {
		t.Fatalf("covered %d configs, want %d", len(res.Stats), space.Count())
	}
	// Passes: 4 block sizes × 2 wide associativities.
	if res.Passes != 8 {
		t.Errorf("Passes = %d, want 8", res.Passes)
	}
	// Every block size materialized a shared stream.
	if len(res.StreamCompression) != 4 {
		t.Errorf("StreamCompression has %d block sizes, want 4", len(res.StreamCompression))
	}
	for b, ratio := range res.StreamCompression {
		if ratio < 1 {
			t.Errorf("block %d: compression ratio %v < 1", b, ratio)
		}
	}
	// Exactness of the merged map against the reference simulator on a
	// sample of configurations including direct-mapped ones.
	for _, cfg := range []cache.Config{
		mustCfg(1, 1, 1),
		mustCfg(8, 1, 4),
		mustCfg(32, 4, 8),
		mustCfg(4, 2, 2),
	} {
		want, err := refsim.RunTrace(cfg, cache.FIFO, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.Stats[cfg]
		if !ok {
			t.Fatalf("config %v missing", cfg)
		}
		if got.Misses != want.Misses {
			t.Errorf("%v: explore %d misses, refsim %d", cfg, got.Misses, want.Misses)
		}
	}
}

func TestRunWorkersEquivalence(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(3000, 2)
	seq, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Stats) != len(par.Stats) {
		t.Fatalf("coverage differs: %d vs %d", len(seq.Stats), len(par.Stats))
	}
	for cfg, s := range seq.Stats {
		if par.Stats[cfg] != s {
			t.Errorf("%v: sequential %+v vs parallel %+v", cfg, s, par.Stats[cfg])
		}
	}
	for b, ratio := range seq.StreamCompression {
		if par.StreamCompression[b] != ratio {
			t.Errorf("block %d: compression differs: %v vs %v", b, ratio, par.StreamCompression[b])
		}
	}
}

// TestRunShardedEquivalence runs the same space monolithic and sharded
// (both policies): the merged stats must be identical, and the shard
// fan-out must be recorded.
func TestRunShardedEquivalence(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(4000, 5)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
		mono, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 2, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if mono.Shards != 0 {
			t.Errorf("monolithic run recorded %d shards", mono.Shards)
		}
		sharded, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 2, Shards: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Shards != 4 {
			t.Errorf("%v: Shards = %d, want 4", policy, sharded.Shards)
		}
		if len(sharded.Stats) != len(mono.Stats) {
			t.Fatalf("%v: coverage differs: %d vs %d", policy, len(sharded.Stats), len(mono.Stats))
		}
		for cfg, s := range mono.Stats {
			if sharded.Stats[cfg] != s {
				t.Errorf("%v %v: monolithic %+v vs sharded %+v", policy, cfg, s, sharded.Stats[cfg])
			}
		}
	}
	// A shard request above the deepest level is capped, not rejected.
	capped, err := Run(context.Background(), Request{
		Space:  cache.ParamSpace{MaxLogSets: 1, MaxLogBlock: 1, MaxLogAssoc: 1},
		Source: FromTrace(tr), Shards: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Shards != 2 {
		t.Errorf("capped run fanned across %d trees, want 2", capped.Shards)
	}
}

// TestRunDecodesTraceOnce asserts the fold ladder's contract end to
// end: no matter how many block sizes the space spans, and whether the
// passes run monolithic or sharded, the raw trace source is consumed
// exactly once per exploration — every other block size is fold-derived
// (and the provenance fields record it).
func TestRunDecodesTraceOnce(t *testing.T) {
	space := smallSpace() // 4 block sizes
	tr := randomTrace(4000, 11)
	for _, shards := range []int{0, 4} {
		var decodes atomic.Int32
		src := func() trace.Reader {
			decodes.Add(1)
			return tr.NewSliceReader()
		}
		res, err := Run(context.Background(), Request{Space: space, Source: src, Workers: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := decodes.Load(); got != 1 {
			t.Errorf("shards=%d: source decoded %d times, want exactly 1", shards, got)
		}
		if res.Decodes != 1 {
			t.Errorf("shards=%d: Decodes = %d, want 1", shards, res.Decodes)
		}
		if res.Folds != 3 {
			t.Errorf("shards=%d: Folds = %d, want 3", shards, res.Folds)
		}
		if len(res.StreamCompression) != 4 {
			t.Errorf("shards=%d: StreamCompression covers %d block sizes, want 4", shards, len(res.StreamCompression))
		}
	}
}

func TestRunAssocOneOnlySpace(t *testing.T) {
	space := cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: 4,
		MinLogBlock: 2, MaxLogBlock: 2,
		MinLogAssoc: 0, MaxLogAssoc: 0,
	}
	res, err := Run(context.Background(), Request{Space: space, Source: FromTrace(randomTrace(2000, 3))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 5 {
		t.Fatalf("covered %d configs, want 5", len(res.Stats))
	}
	if res.Passes != 1 {
		t.Errorf("Passes = %d, want 1", res.Passes)
	}
}

func TestRunExcludesAssocOneWhenOutOfSpace(t *testing.T) {
	space := cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: 3,
		MinLogBlock: 0, MaxLogBlock: 0,
		MinLogAssoc: 1, MaxLogAssoc: 2, // assoc 2 and 4 only
	}
	res, err := Run(context.Background(), Request{Space: space, Source: FromTrace(randomTrace(2000, 4))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != space.Count() {
		t.Fatalf("covered %d configs, want %d", len(res.Stats), space.Count())
	}
	for cfg := range res.Stats {
		if cfg.Assoc == 1 {
			t.Errorf("assoc-1 config %v leaked into a space without it", cfg)
		}
	}
}

func TestRunProgressMonotone(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	_, err := Run(context.Background(), Request{
		Space:  smallSpace(),
		Source: FromTrace(randomTrace(1000, 5)),
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 8 {
				t.Errorf("total = %d, want 8", total)
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("progress called %d times, want 8", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Errorf("progress %d reported done=%d", i, d)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Request{Space: cache.ParamSpace{MinLogSets: 3, MaxLogSets: 1}}); err == nil {
		t.Error("want error for invalid space")
	}
	if _, err := Run(context.Background(), Request{Space: smallSpace()}); err == nil {
		t.Error("want error for nil source")
	}
}

func TestFromAppDeterministic(t *testing.T) {
	src := FromApp(workload.DJPEG, 9, 1000)
	a, err := trace.ReadAll(src())
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadAll(src())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("source not replayable at %d", i)
		}
	}
}

func TestRunLRUPolicy(t *testing.T) {
	space := cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: 4,
		MinLogBlock: 2, MaxLogBlock: 2,
		MinLogAssoc: 0, MaxLogAssoc: 2,
	}
	tr := randomTrace(4000, 6)
	res, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []cache.Config{
		mustCfg(4, 2, 4),
		mustCfg(16, 1, 4),
	} {
		want, err := refsim.RunTrace(cfg, cache.LRU, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats[cfg]; got.Misses != want.Misses {
			t.Errorf("%v: LRU explore %d misses, refsim %d", cfg, got.Misses, want.Misses)
		}
	}
	if _, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Policy: cache.Random}); err == nil {
		t.Error("Random policy should be rejected by the passes")
	}
}

func TestRunPaperSpaceSmallTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full 525-config space skipped in -short mode")
	}
	res, err := Run(context.Background(), Request{
		Space:  cache.PaperSpace(),
		Source: FromApp(workload.CJPEG, 1, 20_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 525 {
		t.Fatalf("covered %d configs, want 525", len(res.Stats))
	}
	if res.Passes != 7*4 {
		t.Errorf("Passes = %d, want 28", res.Passes)
	}
}

// TestRunEngineSelection drives the exploration through a non-default
// registered engine: lrutree under LRU must reproduce the dew engine's
// results exactly, in both monolithic and sharded form, and unknown
// engines fail cleanly.
func TestRunEngineSelection(t *testing.T) {
	space := cache.ParamSpace{
		MinLogSets: 0, MaxLogSets: 4,
		MinLogBlock: 1, MaxLogBlock: 2,
		MinLogAssoc: 0, MaxLogAssoc: 1,
	}
	tr := randomTrace(4000, 8)
	want, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		got, err := Run(context.Background(), Request{
			Space: space, Source: FromTrace(tr), Policy: cache.LRU,
			Engine: "lrutree", Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Stats) != len(want.Stats) {
			t.Fatalf("shards=%d: coverage %d vs %d", shards, len(got.Stats), len(want.Stats))
		}
		for cfg, s := range want.Stats {
			if got.Stats[cfg] != s {
				t.Errorf("shards=%d %v: lrutree %+v vs dew %+v", shards, cfg, got.Stats[cfg], s)
			}
		}
	}
	if _, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Engine: "nope"}); err == nil {
		t.Error("unknown engine must fail")
	}
	if _, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Engine: "lrutree"}); err == nil {
		t.Error("lrutree under FIFO must fail")
	}
}

func TestRunKindsTotalsAndEquivalence(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(6000, 9)
	var want [3]uint64
	for _, a := range tr {
		want[a.Kind]++
	}
	plain, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	kinds, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 2, Kinds: true})
	if err != nil {
		t.Fatal(err)
	}
	if kinds.KindTotals != want {
		t.Errorf("KindTotals = %v, want %v", kinds.KindTotals, want)
	}
	if plain.KindTotals != ([3]uint64{}) {
		t.Errorf("kind-free run reported totals %v", plain.KindTotals)
	}
	// The kind channel must not perturb a single result.
	if len(plain.Stats) != len(kinds.Stats) {
		t.Fatalf("coverage differs: %d vs %d", len(plain.Stats), len(kinds.Stats))
	}
	for cfg, st := range plain.Stats {
		if kinds.Stats[cfg] != st {
			t.Errorf("%v: kind run %+v, plain %+v", cfg, kinds.Stats[cfg], st)
		}
	}
	// The sharded partition carries the channel too.
	sharded, err := Run(context.Background(), Request{Space: space, Source: FromTrace(tr), Workers: 2, Shards: 4, Kinds: true})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.KindTotals != want {
		t.Errorf("sharded KindTotals = %v, want %v", sharded.KindTotals, want)
	}
	for cfg, st := range plain.Stats {
		if sharded.Stats[cfg] != st {
			t.Errorf("%v: sharded kind run %+v, plain %+v", cfg, sharded.Stats[cfg], st)
		}
	}
}

// mustCfg builds a cache.Config test fixture, panicking on parameters
// that could only be wrong at authoring time.
func mustCfg(sets, assoc, blockSize int) cache.Config {
	c, err := cache.NewConfig(sets, assoc, blockSize)
	if err != nil {
		panic(err)
	}
	return c
}
