package explore

import (
	"context"
	"fmt"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/store"
	"dew/internal/trace"
)

// passSpec identifies one DEW pass: one (block size, associativity)
// pair covering every set count of the space.
type passSpec struct{ block, assoc int }

// passSim is a pass's engine in a streamed replay: its failure names
// the pass, as the materialized schedule's does.
type passSim struct {
	engine.Engine
	ps passSpec
}

func (s passSim) SimulateStream(bs *trace.BlockStream) error {
	if err := s.Engine.SimulateStream(bs); err != nil {
		return fmt.Errorf("explore: pass B=%d A=%d: %w", s.ps.block, s.ps.assoc, err)
	}
	return nil
}

// mergeStats folds one pass's per-configuration results into the shared
// table. Direct-mapped rows arrive from several passes and must agree
// exactly.
func mergeStats(res *Result, includeAssoc1 bool, results []engine.Result) error {
	for _, r := range results {
		if r.Config.Assoc == 1 && !includeAssoc1 {
			continue
		}
		if prev, ok := res.Stats[r.Config]; ok && prev != r.Stats {
			return fmt.Errorf("explore: inconsistent results for %v: %+v vs %+v",
				r.Config, prev, r.Stats)
		}
		res.Stats[r.Config] = r.Stats
	}
	return nil
}

// runStreamed is Run's bounded-memory schedule (Request.StreamMem): the
// raw trace decodes once into run-compressed spans at the finest rung
// (trace.StreamSpans — chunk-parallel, backpressured against the memory
// budget), the streaming fold ladder derives every coarser rung span by
// span, and every live pass's engine consumes its rung's spans as they
// appear, at most workers passes at once (trace.ReplaySpans). The
// engines are sequential state machines whose SimulateStream
// accumulates across calls, so the merged results are bit-identical to
// the materialized schedule; only peak memory and overlap change. Warm
// passes are still served from the result tier, the sampled warm pass
// re-simulates on the same spans, and — with a cache configured and the
// finest-rung entry absent — the pass publishes that rung to the stream
// tier as it flows past (store.Spool, spooled to disk, never
// re-buffered in memory).
func runStreamed(ctx context.Context, req Request, name string, passes []passSpec,
	warmBlobs []*store.ResultBlob, passKeys []string, checkIdx, workers int) (*Result, error) {
	blocks := req.Space.BlockSizes()

	// One engine per pass that replays live this run (result-tier misses
	// plus the sampled warm check), grouped by rung for the replay.
	engs := make([]engine.Engine, len(passes))
	rungOf := make(map[int]int, len(blocks))
	for r, b := range blocks {
		rungOf[b] = r
	}
	sims := make([][]trace.StreamSimulator, len(blocks))
	for i, ps := range passes {
		if warmBlobs[i] != nil && i != checkIdx {
			continue
		}
		e, err := engine.New(name, passResultSpec(req, ps.block, ps.assoc))
		if err != nil {
			return nil, fmt.Errorf("explore: pass B=%d A=%d: %w", ps.block, ps.assoc, err)
		}
		engs[i] = e
		r := rungOf[ps.block]
		sims[r] = append(sims[r], passSim{e, ps})
	}

	p, err := trace.StreamSpans(ctx, req.Source(), blocks[0], trace.SpanOptions{
		MemBytes: req.StreamMem, Workers: workers, Kinds: req.Kinds,
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// Stream-tier publish rides the pass: spool each finest-rung span as
	// it arrives. The trace-wide kind totals accumulate across spans;
	// the per-rung stream shape (for StreamCompression and the
	// result-tier scalars) comes back from the replay. Folding and span
	// cuts both preserve access counts exactly.
	cacheKey := ""
	if req.Cache != nil && req.SourceID != "" {
		cacheKey = store.Key(req.SourceID, blocks[0], 0, req.Kinds)
	}
	spool, publish := req.Cache.Spool(cacheKey, blocks[0], req.Kinds)
	var kt [3]uint64
	tap := spool
	if req.Kinds {
		tap = func(s *trace.Span) {
			if spool != nil {
				spool(s)
			}
			for k, n := range s.KindTotals() {
				kt[k] += n
			}
		}
	}
	totals, err := trace.ReplaySpans(ctx, p, blocks, sims, workers, tap)
	publish(ctx, err)
	if err != nil {
		// A pass's failure names the pass (passSim); the pipeline's own
		// failure, such as a corrupt trace, names the stream.
		if err == p.Err() {
			err = fmt.Errorf("explore: streaming block-%d spans: %w", blocks[0], err)
		}
		return nil, err
	}
	accesses := make(map[int]uint64, len(blocks))
	runs := make(map[int]uint64, len(blocks))
	for r, b := range blocks {
		accesses[b], runs[b] = totals[r].Accesses, totals[r].Runs
	}

	res := &Result{
		Stats:             make(map[cache.Config]cache.Stats, req.Space.Count()),
		StreamCompression: make(map[int]float64, len(blocks)),
		Decodes:           1,
		Folds:             len(blocks) - 1,
		Streamed:          true,
		StreamPeakBytes:   p.ResidentBound(),
		CacheKey:          cacheKey,
		KindTotals:        kt,
	}
	for _, b := range blocks {
		ratio := 0.0
		if runs[b] > 0 {
			ratio = float64(accesses[b]) / float64(runs[b])
		}
		res.StreamCompression[b] = ratio
	}

	includeAssoc1 := req.Space.MinLogAssoc == 0
	done := 0
	finish := func(results []engine.Result, simulated, verified bool) error {
		if err := mergeStats(res, includeAssoc1, results); err != nil {
			return err
		}
		res.Passes++
		if simulated {
			res.CellsSimulated++
		} else {
			res.CellsCached++
			if verified {
				res.WarmVerified++
			}
		}
		done++
		if req.Progress != nil {
			req.Progress(done, len(passes))
		}
		return nil
	}
	for i, ps := range passes {
		warm := warmBlobs[i]
		if engs[i] == nil {
			// Served whole from the result tier: zero engine work.
			if err := finish(passResults(warm), false, false); err != nil {
				return nil, err
			}
			continue
		}
		results := engs[i].Results()
		if warm != nil {
			// The sampled warm check, replayed on the shared spans.
			if err := passDiverges(warm, results, accesses[ps.block], runs[ps.block], kt); err != nil {
				req.Cache.DropResult(passKeys[i])
				return nil, fmt.Errorf("explore: result cache diverged from live re-simulation at pass B=%d A=%d (entry dropped): %w",
					ps.block, ps.assoc, err)
			}
			if err := finish(passResults(warm), false, true); err != nil {
				return nil, err
			}
			continue
		}
		if passKeys[i] != "" {
			blob := passBlob(name, passResultSpec(req, ps.block, ps.assoc).CacheKey(),
				passScalars(accesses[ps.block], runs[ps.block], kt), results)
			req.Cache.PutResult(ctx, passKeys[i], blob)
		}
		if err := finish(results, true, false); err != nil {
			return nil, err
		}
	}
	if len(res.Stats) != req.Space.Count() {
		return nil, fmt.Errorf("explore: covered %d of %d configurations", len(res.Stats), req.Space.Count())
	}
	return res, nil
}
