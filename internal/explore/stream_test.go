package explore

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/store"
	"dew/internal/trace"
)

// TestRunStreamedMatchesMaterialized: the bounded span-pipeline schedule
// must merge bit-identical statistics (and identical stream shapes and
// kind totals) to the materialized schedule, for both policies and with
// the kind channel on and off.
func TestRunStreamedMatchesMaterialized(t *testing.T) {
	space := smallSpace()
	tr := randomTrace(20000, 7)
	for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
		for _, kinds := range []bool{false, true} {
			base := Request{Space: space, Source: FromTrace(tr), Workers: 3, Policy: policy, Kinds: kinds}
			mat, err := Run(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			if mat.Streamed || mat.StreamPeakBytes != 0 {
				t.Fatalf("materialized run reported streamed provenance: %+v", mat)
			}
			base.StreamMem = 1 // floor geometry: many spans, maximal boundary coverage
			str, err := Run(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			if !str.Streamed {
				t.Fatal("streamed run did not report Streamed")
			}
			if str.StreamPeakBytes <= 0 {
				t.Fatalf("StreamPeakBytes = %d", str.StreamPeakBytes)
			}
			if !reflect.DeepEqual(str.Stats, mat.Stats) {
				t.Fatalf("policy=%v kinds=%v: streamed stats diverge from materialized", policy, kinds)
			}
			if !reflect.DeepEqual(str.StreamCompression, mat.StreamCompression) {
				t.Fatalf("stream compression differs: %v vs %v", str.StreamCompression, mat.StreamCompression)
			}
			if str.KindTotals != mat.KindTotals {
				t.Fatalf("kind totals differ: %v vs %v", str.KindTotals, mat.KindTotals)
			}
			if str.Passes != mat.Passes || str.Decodes != 1 || str.Folds != mat.Folds {
				t.Fatalf("pass accounting differs: %+v vs %+v", str, mat)
			}
		}
	}
}

func TestRunStreamedRejectsShards(t *testing.T) {
	_, err := Run(context.Background(), Request{
		Space: smallSpace(), Source: FromTrace(randomTrace(100, 1)),
		StreamMem: 1 << 20, Shards: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("streamed sharded run: %v", err)
	}
}

// TestRunStreamedCachePublish: a cold streamed run publishes both tiers
// — the finest-rung stream via the spooled StreamPut and every pass's
// results — so later runs (streamed or materialized) go warm, and the
// sampled warm check still passes on the shared spans.
func TestRunStreamedCachePublish(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(9000, 11)
	sourceID := store.TraceID(tr)
	req := Request{
		Space: smallSpace(), Workers: 2, Kinds: true,
		Source: FromTrace(tr), Cache: st, SourceID: sourceID,
		StreamMem: 1,
	}
	cold, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Streamed || cold.CellsSimulated != cold.Passes {
		t.Fatalf("cold streamed run: %+v", cold)
	}
	if cold.CacheKey == "" || !st.Has(cold.CacheKey) {
		t.Fatal("streamed run did not publish the finest-rung stream")
	}
	// The published entry must be the materialized stream, loadable
	// through the store's normal decode path.
	want, err := tr.BlockStreamWithKinds(space0(req))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(context.Background(), cold.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != want.Accesses || got.Len() != want.Len() || got.KindTotals() != want.KindTotals() {
		t.Fatalf("published stream: %d accesses/%d runs, want %d/%d",
			got.Accesses, got.Len(), want.Accesses, want.Len())
	}

	// Second streamed run: result-tier warm, one sampled pass re-run
	// live on the pipeline's spans.
	var calls atomic.Int32
	req.Source = countingSource(FromTrace(tr), &calls)
	warm, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Streamed || warm.WarmVerified != 1 || warm.CellsCached != warm.Passes {
		t.Fatalf("warm streamed run: %+v", warm)
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Fatal("warm streamed stats diverge from cold run")
	}

	// A materialized run over the same cache loads the streamed publish
	// through the stream tier for its sampled check pass.
	req.StreamMem = 0
	req.Source = FromTrace(tr)
	mat, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Streamed {
		t.Fatal("materialized warm run reported Streamed")
	}
	if !mat.CacheHit || mat.Decodes != 0 {
		t.Fatalf("materialized run did not load the streamed publish: %+v", mat)
	}
	if !reflect.DeepEqual(mat.Stats, cold.Stats) {
		t.Fatal("materialized warm stats diverge from streamed cold run")
	}

	// Fully warm (check disabled): no stream work at all, so the run
	// reports no streamed provenance even with a budget set.
	req.StreamMem = 1
	req.NoWarmCheck = true
	var warmCalls atomic.Int32
	req.Source = countingSource(FromTrace(tr), &warmCalls)
	full, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Streamed || full.CellsCached != full.Passes || warmCalls.Load() != 0 {
		t.Fatalf("fully-warm run: %+v (source pulled %d times)", full, warmCalls.Load())
	}
}

// space0 returns the request space's finest block size.
func space0(req Request) int { return req.Space.BlockSizes()[0] }

// probeEngine is the dew engine with its SimulateStream instrumented:
// probeBusy records how many passes simulate at once, and the pass at
// probeFail fails its first span with errProbe.
type probeEngine struct {
	engine.Engine
	fail bool
}

var (
	probeBusy struct{ now, peak atomic.Int32 }
	probeFail passSpec
	errProbe  = errors.New("probe failure")
)

func init() {
	engine.Register("probe", "dew, with its streamed replay instrumented (explore tests)",
		func(spec engine.Spec) (engine.Engine, error) {
			e, err := engine.New("dew", spec)
			if err != nil {
				return nil, err
			}
			return &probeEngine{Engine: e, fail: probeFail == passSpec{spec.BlockSize, spec.Assoc}}, nil
		})
}

func (p *probeEngine) SimulateStream(bs *trace.BlockStream) error {
	n := probeBusy.now.Add(1)
	defer probeBusy.now.Add(-1)
	for peak := probeBusy.peak.Load(); n > peak && !probeBusy.peak.CompareAndSwap(peak, n); peak = probeBusy.peak.Load() {
	}
	if p.fail {
		return errProbe
	}
	return p.Engine.SimulateStream(bs)
}

// TestRunStreamedHonorsWorkers: a streamed exploration simulates at
// most Workers passes at once, as the materialized one does, with
// statistics bit-identical to the materialized run.
func TestRunStreamedHonorsWorkers(t *testing.T) {
	probeFail = passSpec{}
	tr := randomTrace(20000, 5)
	mat, err := Run(context.Background(), Request{Space: smallSpace(), Source: FromTrace(tr), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		probeBusy.peak.Store(0)
		res, err := Run(context.Background(), Request{
			Space: smallSpace(), Source: FromTrace(tr), Workers: workers,
			Engine: "probe", StreamMem: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak := probeBusy.peak.Load(); peak < 1 || int(peak) > workers {
			t.Errorf("workers %d: %d passes simulated at once", workers, peak)
		}
		if !reflect.DeepEqual(res.Stats, mat.Stats) {
			t.Errorf("workers %d: streamed stats diverge from materialized", workers)
		}
	}
}

// TestRunStreamedPassFault: a pass failing mid-stream fails the
// exploration with the error the materialized schedule reports, naming
// the pass.
func TestRunStreamedPassFault(t *testing.T) {
	probeFail = passSpec{block: 4, assoc: 2}
	defer func() { probeFail = passSpec{} }()
	tr := randomTrace(20000, 5)
	req := Request{Space: smallSpace(), Source: FromTrace(tr), Workers: 2, Engine: "probe"}
	_, matErr := Run(context.Background(), req)
	req.StreamMem = 1
	_, err := Run(context.Background(), req)
	want := "explore: pass B=4 A=2: probe failure"
	if matErr == nil || matErr.Error() != want {
		t.Fatalf("materialized run failed with %v, want %q", matErr, want)
	}
	if !errors.Is(err, errProbe) || err.Error() != want {
		t.Fatalf("streamed run failed with %v, want %q", err, want)
	}
}
