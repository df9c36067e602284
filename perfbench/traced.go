package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"dew/internal/cache"
	"dew/internal/cli"
	"dew/internal/core"
	"dew/internal/engine"
	"dew/internal/explore"
	"dew/internal/store"
	"dew/internal/trace"
)

// The traced run calls, in this process, the entry point each CLI
// dispatches to and then the public entry points of the layers beneath
// it, one layer at a time, recording a span around every call. The
// program itself is not instrumented: every span boundary is a call
// made from this file.

// span is one timed call. Spans of one traced iteration share Iter;
// Parent is the enclosing span's ID, -1 for an iteration's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Iter   int           `json:"iter"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(iter, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// write stores every span as JSON at root/rel.
func (t *tracer) write(root, rel string) error {
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfSeconds returns, per span name, the summed self time of
// iteration iter's spans: each span's duration minus the part its
// direct children cover.
func (t *tracer) selfSeconds(iter int) map[string]float64 {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Iter != iter {
			continue
		}
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	out := make(map[string]float64, len(self))
	for name, d := range self {
		out[name] = d.Seconds()
	}
	return out
}

// counts holds one traced iteration's exact counts and gauges, keyed by
// per-layer metric name.
type counts map[string]float64

// exactCounts must repeat exactly between iterations and between runs
// of one seed; a speed-only change must not move them.
var exactCounts = []string{"trace.runs", "trace.stream_spans", "core.passes", "core.way_cmp_ratio", "store.hit_ratio"}

// Workers of every explore run, in and out of process.
const exploreWorkers = 2

// cliMemBytes is the in-process stream-tier budget the CLIs open their
// store with.
const cliMemBytes = 256 << 20

var entryPoints = map[string]func(context.Context, cli.Env, []string) error{
	"explore": cli.Explore,
	"dewsim":  cli.DewSim,
}

// tracedIteration runs one traced iteration of w. It calls the CLI's
// entry point in process (its table must equal the golden), then every
// layer on w's trace: the materialized decode, fold and passes of w's
// invocation, the same passes replayed through the bounded span
// pipeline, explore.Run over w's space, and the artifact store.
func tracedIteration(ctx context.Context, w *workload, fx *fixture, tr *tracer, iter int) (counts, error) {
	root := tr.begin(iter, -1, "iteration")
	defer tr.end(root)
	if err := runEntry(ctx, w, fx, tr, iter, root, "cli.entry", w.measured(fx)); err != nil {
		return nil, err
	}
	c := counts{}
	if err := materializedLayers(ctx, w, fx, tr, iter, root, c); err != nil {
		return nil, err
	}
	if err := streamedLayers(ctx, w, fx, tr, iter, root, c); err != nil {
		return nil, err
	}
	src, closeAll := fileSource(fx.trace)
	defer closeAll()
	id := tr.begin(iter, root, "explore.run")
	res, err := explore.Run(ctx, explore.Request{Space: w.space, Source: src, Workers: exploreWorkers})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := checkStats(fx, res.Stats); err != nil {
		return nil, fmt.Errorf("explore.Run: %w", err)
	}
	c["explore.passes"] = float64(res.Passes)
	if err := storeLayer(ctx, w, fx, tr, iter, root, c); err != nil {
		return nil, err
	}
	return c, nil
}

// runEntry calls the entry point of w's CLI in process with args under
// a span called name; the table it prints must equal the golden.
func runEntry(ctx context.Context, w *workload, fx *fixture, tr *tracer, iter, root int, name string, args []string) error {
	var out bytes.Buffer
	id := tr.begin(iter, root, name)
	err := entryPoints[w.tool](ctx, cli.Env{Stdout: &out, Stderr: io.Discard}, args)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("in-process %s: %w", w.tool, err)
	}
	if !bytes.Equal(tableOf(out.Bytes()), fx.golden) {
		return fmt.Errorf("in-process %s: table differs from the golden", w.tool)
	}
	return nil
}

// passSpec is the engine spec of one DEW pass over set counts 1..16384,
// as explore and dewsim both build it.
func passSpec(p pass) engine.Spec {
	return engine.Spec{MaxLogSets: 14, Assoc: p.assoc, BlockSize: p.block, Policy: cache.FIFO}
}

// materialize is the decode layer as dewsim and explore call it.
func materialize(path string, block int) (*trace.BlockStream, error) {
	r, closer, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return trace.MaterializeBlockStream(r, block)
}

// fileSource opens the trace once per read the exploration asks for and
// closes every file when the returned close function is called.
func fileSource(path string) (explore.Source, func()) {
	var (
		mu      sync.Mutex
		closers []io.Closer
	)
	src := func() trace.Reader {
		r, closer, err := trace.OpenFile(path)
		if err != nil {
			return errReader{err}
		}
		mu.Lock()
		closers = append(closers, closer)
		mu.Unlock()
		return r
	}
	return src, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range closers {
			c.Close()
		}
	}
}

type errReader struct{ err error }

func (e errReader) Next() (trace.Access, error) { return trace.Access{}, e.err }

// checkResults compares in-process results with the golden table.
func checkResults(fx *fixture, results []engine.Result) error {
	for _, res := range results {
		if want, ok := fx.rows[res.Config]; !ok || want != res.Stats {
			return fmt.Errorf("%v: in-process %+v, golden %+v", res.Config, res.Stats, want)
		}
	}
	return nil
}

// checkStats compares every configuration the golden table also lists.
func checkStats(fx *fixture, stats map[cache.Config]cache.Stats) error {
	for cfg, st := range stats {
		if want, ok := fx.rows[cfg]; ok && want != st {
			return fmt.Errorf("%v: %+v, golden %+v", cfg, st, want)
		}
	}
	return nil
}

// materializedLayers decodes w's finest rung, fold-derives the other
// rungs and runs every pass one after another, as dewsim does without
// -stream-mem and explore does with one worker. On a workload that asks
// for it, it also counts way comparisons (see wayCmpRatio).
func materializedLayers(ctx context.Context, w *workload, fx *fixture, tr *tracer, iter, root int, c counts) error {
	id := tr.begin(iter, root, "trace.decode")
	base, err := materialize(fx.trace, w.blocks[0])
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(iter, root, "trace.fold")
	ladder, err := trace.FoldLadder(base, w.blocks)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, b := range w.blocks {
		c["trace.runs"] += float64(ladder[b].Len())
	}
	for _, p := range w.passes() {
		id := tr.begin(iter, root, "core.simulate")
		eng, err := engine.Run(ctx, "dew", passSpec(p), ladder[p.block], nil)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := checkResults(fx, eng.Results()); err != nil {
			return err
		}
		c["core.passes"]++
		c["core.runs_replayed"] += float64(ladder[p.block].Len())
	}
	if w.wayCmp {
		p := w.passes()[0]
		ratio, err := wayCmpRatio(ctx, fx, passSpec(p), ladder[p.block])
		if err != nil {
			return err
		}
		c["core.way_cmp_ratio"] = ratio
	}
	return nil
}

// wayCmpRatio is the paper's Table 3 count on one pass: tag comparisons
// refsim makes, summed over every configuration of the pass, over the
// comparisons of DEW's instrumented per-access pass. refsim replays the
// run-compressed stream, which counts comparisons exactly as the
// expanded trace would; every refsim miss count must equal DEW's.
func wayCmpRatio(ctx context.Context, fx *fixture, spec engine.Spec, bs *trace.BlockStream) (float64, error) {
	r, closer, err := trace.OpenFile(fx.trace)
	if err != nil {
		return 0, err
	}
	defer closer.Close()
	sim, err := core.Run(core.Options{MinLogSets: spec.MinLogSets, MaxLogSets: spec.MaxLogSets,
		Assoc: spec.Assoc, BlockSize: spec.BlockSize, Policy: spec.Policy}, r)
	if err != nil {
		return 0, err
	}
	var ref uint64
	for _, res := range sim.Results() {
		if fx.rows[res.Config] != res.Stats {
			return 0, fmt.Errorf("instrumented DEW %v: %+v, golden %+v", res.Config, res.Stats, fx.rows[res.Config])
		}
		lg := bits.TrailingZeros(uint(res.Config.Sets))
		eng, err := engine.Run(ctx, "ref", engine.Spec{MinLogSets: lg, MaxLogSets: lg,
			Assoc: res.Config.Assoc, BlockSize: res.Config.BlockSize, Policy: spec.Policy}, bs, nil)
		if err != nil {
			return 0, err
		}
		rs := eng.(engine.RefStatser).RefStats()
		if rs.Stats != res.Stats {
			return 0, fmt.Errorf("refsim %v: %+v, DEW %+v", res.Config, rs.Stats, res.Stats)
		}
		ref += rs.TagComparisons
	}
	dew := sim.Counters().TagComparisons
	if dew == 0 {
		return 0, errors.New("instrumented DEW pass made no tag comparisons")
	}
	return float64(ref) / float64(dew), nil
}

// streamedLayers replays w's passes as dewsim and explore do with
// -stream-mem: one bounded span pipeline at the finest rung, the
// streaming fold ladder, and one engine per pass consuming its rung's
// spans in place. The wait on the span channel is timed at each
// receive; the heap is sampled throughout. Fold and simulation here are
// recorded as stream.fold and stream.simulate spans, apart from the
// materialized figures.
func streamedLayers(ctx context.Context, w *workload, fx *fixture, tr *tracer, iter, root int, c counts) error {
	engs := map[int][]engine.Engine{}
	for _, p := range w.passes() {
		eng, err := engine.New("dew", passSpec(p))
		if err != nil {
			return err
		}
		engs[p.block] = append(engs[p.block], eng)
	}
	folder, err := trace.NewLadderFolder(w.blocks[0], w.blocks, false)
	if err != nil {
		return err
	}
	parent := root
	visit := func(b int, s *trace.BlockStream) error {
		for _, eng := range engs[b] {
			id := tr.begin(iter, parent, "stream.simulate")
			err := eng.SimulateStream(s)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}

	runtime.GC()
	heap := startHeapPeak()
	sid := tr.begin(iter, root, "trace.stream")
	pl, err := trace.StreamFileSpans(ctx, fx.trace, w.blocks[0], trace.SpanOptions{MemBytes: streamMemBytes})
	if err != nil {
		tr.end(sid)
		heap.stop()
		return err
	}
	replay := func() error {
		defer pl.Close()
		spans := pl.Spans()
		for {
			id := tr.begin(iter, sid, "trace.stream_wait")
			s, ok := <-spans
			tr.end(id)
			if !ok {
				break
			}
			c["trace.stream_spans"]++
			parent = tr.begin(iter, sid, "stream.fold")
			err := folder.Feed(&s.BlockStream, visit)
			tr.end(parent)
			if err != nil {
				return err
			}
		}
		if err := pl.Err(); err != nil {
			return err
		}
		parent = tr.begin(iter, sid, "stream.fold")
		defer tr.end(parent)
		return folder.Flush(visit)
	}
	err = replay()
	tr.end(sid)
	peak := heap.stop()
	if err != nil {
		return err
	}
	for _, es := range engs {
		for _, eng := range es {
			if err := checkResults(fx, eng.Results()); err != nil {
				return fmt.Errorf("streamed: %w", err)
			}
		}
	}
	c["trace.stream_bound_bytes"] = float64(pl.ResidentBound())
	c["trace.stream_heap_peak_mib"] = float64(peak) / (1 << 20)
	return nil
}

// storeLayer measures the artifact store the way a warm run of w's CLI
// uses it. The CLI's entry point with -cache fills a fresh store (every
// pass result and the finest-rung stream); then a newly opened store,
// whose in-process tier is empty as in a new CLI process, serves the
// warm run's reads: the trace's content identity, one result-tier probe
// per pass and the stream-tier load. It records result hits over
// probes.
func storeLayer(ctx context.Context, w *workload, fx *fixture, tr *tracer, iter, root int, c counts) error {
	dir, err := os.MkdirTemp(filepath.Dir(fx.trace), "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := runEntry(ctx, w, fx, tr, iter, root, "store.fill", append(w.measured(fx), "-cache", dir)); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{MemBytes: cliMemBytes})
	if err != nil {
		return err
	}
	id := tr.begin(iter, root, "store.source_id")
	srcID, err := store.FileID(fx.trace)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, p := range w.passes() {
		specKey := passSpec(p).CacheKey()
		key := store.ResultKey(store.Key(srcID, p.block, 0, false), "dew", specKey)
		id := tr.begin(iter, root, "store.get_result")
		rb, err := st.GetResult(ctx, key, "dew", specKey)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("result tier, pass B=%d A=%d: %w", p.block, p.assoc, err)
		}
		for _, rec := range rb.Records {
			if fx.rows[rec.Config] != rec.Stats {
				return fmt.Errorf("cached %v: %+v, golden %+v", rec.Config, rec.Stats, fx.rows[rec.Config])
			}
		}
	}
	finest := w.blocks[0]
	id = tr.begin(iter, root, "store.load_stream")
	_, _, err = st.GetOrMaterialize(ctx, store.Key(srcID, finest, 0, false), finest, false,
		func(context.Context) (*trace.BlockStream, error) {
			return nil, errors.New("stream tier missed: the fill published no stream")
		})
	tr.end(id)
	if err != nil {
		return err
	}
	stats := st.Stats()
	c["store.hit_ratio"] = float64(stats.ResultHits) / float64(stats.ResultHits+stats.ResultMisses)
	return nil
}

// heapPeak samples the live heap from runtime/metrics every millisecond
// until stopped and keeps the highest reading.
type heapPeak struct {
	quit chan struct{}
	peak chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.quit)
	return <-h.peak
}
