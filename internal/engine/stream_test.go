package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dew/internal/cache"
	"dew/internal/refsim"
	"dew/internal/trace"
	"dew/internal/workload"
)

// splitSpans cuts a materialized stream at the given run indices — the
// same final-run boundaries the span pipeline cuts at.
func splitSpans(bs *trace.BlockStream, cuts []int) []*trace.Span {
	bounds := append(append([]int{0}, cuts...), len(bs.IDs))
	var spans []*trace.Span
	var start uint64
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi {
			continue
		}
		s := &trace.Span{Start: start, Seq: len(spans)}
		s.BlockStream = trace.BlockStream{BlockSize: bs.BlockSize, IDs: bs.IDs[lo:hi], Runs: bs.Runs[lo:hi]}
		if bs.Kinds != nil {
			s.Kinds = bs.Kinds[lo:hi]
		}
		for _, w := range s.Runs {
			s.Accesses += uint64(w)
		}
		start += s.Accesses
		spans = append(spans, s)
	}
	return spans
}

// pipelineSpecs enumerates every engine × policy × write/alloc combo
// the streamed replay must reproduce exactly.
func pipelineSpecs(block int) []struct {
	name  string
	label string
	spec  Spec
} {
	var out []struct {
		name  string
		label string
		spec  Spec
	}
	add := func(name, label string, spec Spec) {
		out = append(out, struct {
			name  string
			label string
			spec  Spec
		}{name, label, spec})
	}
	add("dew", "dew/fifo", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: block, Policy: cache.FIFO})
	add("dew", "dew/lru", Spec{MaxLogSets: 5, Assoc: 2, BlockSize: block, Policy: cache.LRU})
	add("lrutree", "lrutree", Spec{MaxLogSets: 5, Assoc: 4, BlockSize: block, Policy: cache.LRU})
	add("ref", "ref/lru", Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.LRU})
	add("ref", "ref/random", Spec{MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.Random})
	for _, wp := range []refsim.WritePolicy{refsim.WriteBack, refsim.WriteThrough} {
		for _, ap := range []refsim.AllocPolicy{refsim.WriteAllocate, refsim.NoWriteAllocate} {
			add("ref", fmt.Sprintf("ref/%v-%v", wp, ap), Spec{
				MinLogSets: 4, MaxLogSets: 4, Assoc: 2, BlockSize: block, Policy: cache.LRU,
				WriteSim: true, Write: wp, Alloc: ap, StoreBytes: 2,
			})
		}
	}
	return out
}

// sameEngineState compares the full statistics surface of two engines.
func sameEngineState(t *testing.T, label string, got, want Engine) {
	t.Helper()
	gr, wr := got.Results(), want.Results()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d results, want %d", label, len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, gr[i], wr[i])
		}
	}
	if got.Accesses() != want.Accesses() {
		t.Fatalf("%s: accesses %d, want %d", label, got.Accesses(), want.Accesses())
	}
	if ws, ok := want.(RefStatser); ok {
		if gs := got.(RefStatser).RefStats(); gs != ws.RefStats() {
			t.Fatalf("%s: ref stats = %+v, want %+v", label, gs, ws.RefStats())
		}
	}
	if wt, ok := want.(TrafficStatser); ok {
		if gt := got.(TrafficStatser).RefTraffic(); gt != wt.RefTraffic() {
			t.Fatalf("%s: traffic = %+v, want %+v", label, gt, wt.RefTraffic())
		}
	}
}

// simulateSpans replays spans through e in order, one SimulateStream
// call each — the loop every streamed replay runs.
func simulateSpans(e Engine, spans []*trace.Span) error {
	for _, s := range spans {
		if err := e.SimulateStream(&s.BlockStream); err != nil {
			return err
		}
	}
	return nil
}

// TestSimulateStreamEverySplit replays each engine over the stream split
// at every single run boundary (and at several multi-span strides):
// span-by-span SimulateStream must be bit-identical to one monolithic
// replay, the property streamed replay depends on.
func TestSimulateStreamEverySplit(t *testing.T) {
	tr := engineKindTrace(600)
	const block = 8
	plain, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	kinded, err := tr.BlockStreamWithKinds(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pipelineSpecs(block) {
		bs := plain
		if tc.spec.WriteSim {
			bs = kinded
		}
		oracle, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		// Every single-cut split.
		for cut := 0; cut <= len(bs.IDs); cut++ {
			e, err := New(tc.name, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := simulateSpans(e, splitSpans(bs, []int{cut})); err != nil {
				t.Fatal(err)
			}
			sameEngineState(t, fmt.Sprintf("%s cut=%d", tc.label, cut), e, oracle)
		}
		// Uniform strides: many spans per replay.
		for _, stride := range []int{1, 3, 17} {
			var cuts []int
			for c := stride; c < len(bs.IDs); c += stride {
				cuts = append(cuts, c)
			}
			e, err := New(tc.name, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := simulateSpans(e, splitSpans(bs, cuts)); err != nil {
				t.Fatal(err)
			}
			sameEngineState(t, fmt.Sprintf("%s stride=%d", tc.label, stride), e, oracle)
		}
	}
}

// TestSimulateStreamLivePipeline runs every engine over a live span
// pipeline with a tiny budget and checks against the monolithic
// materialized replay.
func TestSimulateStreamLivePipeline(t *testing.T) {
	tr := engineKindTrace(20000)
	const block = 8
	plain, err := tr.BlockStream(block)
	if err != nil {
		t.Fatal(err)
	}
	kinded, err := tr.BlockStreamWithKinds(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pipelineSpecs(block) {
		bs := plain
		if tc.spec.WriteSim {
			bs = kinded
		}
		oracle, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.SimulateStream(bs); err != nil {
			t.Fatal(err)
		}
		p, err := trace.StreamSpans(context.Background(), tr.NewSliceReader(), block,
			trace.SpanOptions{MemBytes: 1, Workers: 3, Kinds: tc.spec.WriteSim})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for s := range p.Spans() {
			if err := e.SimulateStream(&s.BlockStream); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		sameEngineState(t, tc.label+" streamed", e, oracle)
	}
}

// scatterGen is a workload.Generator with deliberately terrible run
// compression: almost every access lands in a new block, so the
// materialized stream costs ~12 bytes per access and a full-stream
// accumulation is impossible to miss against a small budget.
type scatterGen struct{ rng *rand.Rand }

func (g *scatterGen) Next() trace.Access {
	return trace.Access{Addr: uint64(g.rng.Int63n(1 << 34)), Kind: trace.DataRead}
}

// TestSimulateStreamBoundedMemory streams an endless-feed workload
// whose materialized stream would be ~10× the budget and asserts, via
// runtime.ReadMemStats sampled across the replay, that heap growth
// stays bounded — the regression guard against accidental full-stream
// accumulation anywhere in the span path.
func TestSimulateStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million access stream")
	}
	const n = 6_000_000 // ~72 MiB materialized at ~12 B/run
	const budget = 4 << 20
	r := workload.Stream(&scatterGen{rng: rand.New(rand.NewSource(99))}, n)
	p, err := trace.StreamSpans(context.Background(), r, 64, trace.SpanOptions{MemBytes: budget, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e, err := New("dew", Spec{MaxLogSets: 3, Assoc: 1, BlockSize: 64, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	spans := 0
	for s := range p.Spans() {
		if err := e.SimulateStream(&s.BlockStream); err != nil {
			t.Fatal(err)
		}
		if spans++; spans%16 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Accesses() != n {
		t.Fatalf("simulated %d accesses, want %d", e.Accesses(), n)
	}
	if spans < 8 {
		t.Fatalf("budget %d produced only %d spans", budget, spans)
	}
	// Generous slack over the ~4 MiB pipeline bound for GC lag and the
	// engine's own arenas — but far under the ~72 MiB a full-stream
	// accumulation would show.
	if limit := base + 32<<20; peak > limit {
		t.Fatalf("heap peaked at %d bytes (baseline %d): streaming is not bounded", peak, base)
	}
}
