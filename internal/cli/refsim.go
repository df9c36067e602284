package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"time"

	"dew/internal/cache"
	"dew/internal/engine"
	"dew/internal/refsim"
	"dew/internal/store"
	"dew/internal/sweep"
	"dew/internal/trace"
)

// RefSim simulates a single cache configuration over a trace — the
// Dinero IV role: one (sets, assoc, block, policy) combination per run,
// full statistics including per-kind counts and write-policy traffic.
// With -shards ≥ 2 the replay instead runs the sharded reference
// engine over kind-preserving set-substreams partitioned from the
// decoded stream; the write/alloc axes and the full statistics
// set work identically there, because the kind channel preserves
// exactly the per-run structure a write-policy replay observes.
func RefSim(ctx context.Context, env Env, args []string) error {
	fs := flag.NewFlagSet("refsim", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		sets      = fs.Int("sets", 256, "number of sets (power of two)")
		assoc     = fs.Int("assoc", 4, "associativity (power of two)")
		block     = fs.Int("block", 32, "block size in bytes (power of two)")
		policyStr = fs.String("policy", "FIFO", "replacement policy: FIFO, LRU or Random")
		wp        = fs.String("write", "write-back", "write policy: write-back (wb) or write-through (wt)")
		alloc     = fs.String("alloc", "write-allocate", "allocation policy: write-allocate (wa) or no-write-allocate (nwa)")
		sbytes    = fs.Int("store-bytes", 4, "store width in bytes charged for write-through and no-write-allocate traffic")
		shards    = fs.Int("shards", 1, "replay this many set-substreams in parallel, partitioned from the decoded kind-preserving stream (1 = off, 0 = auto from GOMAXPROCS)")
	)
	cacheDir := addCacheFlag(fs)
	streamMemStr := addStreamMemFlag(fs)
	tf := addTraceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	cfg, err := cache.NewConfig(*sets, *assoc, *block)
	if err != nil {
		return err
	}
	policy, err := cache.ParsePolicy(*policyStr)
	if err != nil {
		return err
	}
	if *shards < 0 {
		return usagef("-shards must be at least 0")
	}
	if *shards == 0 {
		*shards = sweep.AutoShards()
	}
	opts := refsim.Options{Config: cfg, Replacement: policy, StoreBytes: *sbytes}
	if opts.Write, err = parseWritePolicy(*wp); err != nil {
		return err
	}
	if opts.Alloc, err = parseAllocPolicy(*alloc); err != nil {
		return err
	}
	if *sbytes < 0 {
		return usagef("-store-bytes must be at least 0")
	}
	streamMem, err := parseMemBytes(*streamMemStr)
	if err != nil {
		return err
	}
	if streamMem > 0 {
		if *shards > 1 {
			return usagef("-stream-mem and -shards are incompatible (the sharded replay needs the whole partition resident)")
		}
		return refSimStreamed(ctx, env, tf, opts, policy, streamMem, *cacheDir)
	}
	if *shards > 1 {
		return refSimSharded(ctx, env, tf, opts, policy, *shards, *cacheDir)
	}

	r, closer, err := tf.open()
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}

	sim, err := refsim.NewSim(opts)
	if err != nil {
		return err
	}
	stats, err := sim.Simulate(r)
	if err != nil {
		return err
	}

	fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
		cfg, policy, opts.Write, opts.Alloc)
	printRefStats(env.Stdout, stats, sim.Traffic())
	return nil
}

// printRefStats renders the full Dinero-style record — shared by the
// per-access and sharded stream paths so their outputs are comparable
// line for line.
func printRefStats(w io.Writer, stats refsim.Stats, tr refsim.Traffic) {
	fmt.Fprintf(w, "accesses:          %d (%d reads, %d writes, %d ifetches)\n",
		stats.Accesses, stats.AccessesByKind[trace.DataRead],
		stats.AccessesByKind[trace.DataWrite], stats.AccessesByKind[trace.IFetch])
	fmt.Fprintf(w, "misses:            %d (rate %.4f)\n", stats.Misses, stats.MissRate())
	fmt.Fprintf(w, "  compulsory:      %d\n", stats.CompulsoryMisses)
	fmt.Fprintf(w, "  by kind:         %d read, %d write, %d ifetch\n",
		stats.MissesByKind[trace.DataRead], stats.MissesByKind[trace.DataWrite],
		stats.MissesByKind[trace.IFetch])
	fmt.Fprintf(w, "evictions:         %d\n", stats.Evictions)
	fmt.Fprintf(w, "tag comparisons:   %d\n", stats.TagComparisons)
	fmt.Fprintf(w, "bytes from memory: %d\n", tr.BytesFromMemory)
	fmt.Fprintf(w, "bytes to memory:   %d (%d writebacks)\n", tr.BytesToMemory, tr.Writebacks)
}

// refSimStreamed is the -stream-mem path: one bounded span pipeline
// decodes the trace chunk-parallel into kind-preserving spans and the
// single-configuration reference engine consumes each span as it
// appears, on a goroutine of its own (trace.ReplaySpans) — decode and
// simulation overlap, the resident stream state stays within the
// budget, and the accumulated statistics are bit-identical to the
// per-access replay for every policy (including
// Random replacement: its generator steps once per eviction, evictions
// happen only on a run's first access, and run compression preserves
// exactly that sequence). With an artifact cache the pass publishes
// the kind-preserving finest stream span by span, spooled without
// re-buffering.
func refSimStreamed(ctx context.Context, env Env, tf traceFlags, opts refsim.Options, policy cache.Policy, streamMem int64, cacheDir string) error {
	cfg := opts.Config
	logSets := bits.Len(uint(cfg.Sets)) - 1
	cacheStore, err := openCache(cacheDir)
	if err != nil {
		return err
	}
	eng, err := engine.New("ref", engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets,
		Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: policy,
		WriteSim: true, Write: opts.Write, Alloc: opts.Alloc, StoreBytes: opts.StoreBytes,
	})
	if err != nil {
		return err
	}
	pl, err := tf.streamSpans(ctx, cfg.BlockSize, trace.SpanOptions{MemBytes: streamMem, Kinds: true})
	if err != nil {
		return err
	}
	defer pl.Close()
	var key string
	if cacheStore != nil {
		srcID, err := tf.sourceID()
		if err != nil {
			return err
		}
		key = store.Key(srcID, cfg.BlockSize, 0, true)
	}
	start := time.Now()
	spool, publish := cacheStore.Spool(key, cfg.BlockSize, true)
	_, err = trace.ReplaySpans(ctx, pl, []int{cfg.BlockSize}, [][]trace.StreamSimulator{{eng}}, 0, spool)
	publish(ctx, err)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	stats := eng.(engine.RefStatser).RefStats()
	traffic := eng.(engine.TrafficStatser).RefTraffic()
	fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
		cfg, policy, opts.Write, opts.Alloc)
	fmt.Fprintf(env.Stdout, "replay:            streamed (peak %s stream resident, decode overlapped, replayed in %v)\n",
		cache.FormatSize(int(pl.ResidentBound())), elapsed.Round(time.Millisecond))
	printRefStats(env.Stdout, stats, traffic)
	return nil
}

// refSimSharded is the -shards ≥ 2 path: materialize the
// kind-preserving stream, partition it into set-substreams in O(runs),
// and replay it through the sharded write-policy reference engine. The
// shard count resolves through the same trace.ShardLog rounding every
// -shards knob uses, capped at the configuration's set count;
// configurations with fewer sets than the resolved fan-out (and Random
// replacement, whose decomposition is not exact) fall back to the
// exact monolithic stream replay inside the engine. With an artifact
// cache, the kind-preserving finest stream is loaded instead of
// decoded when present.
func refSimSharded(ctx context.Context, env Env, tf traceFlags, opts refsim.Options, policy cache.Policy, shards int, cacheDir string) error {
	cfg := opts.Config
	// shards ≥ 2 here, so the shared rounding rule always yields a
	// level in [0, logSets].
	logSets := bits.Len(uint(cfg.Sets)) - 1
	log := trace.ShardLog(shards, logSets)
	cacheStore, err := openCache(cacheDir)
	if err != nil {
		return err
	}
	spec := engine.Spec{
		MinLogSets: logSets, MaxLogSets: logSets,
		Assoc: cfg.Assoc, BlockSize: cfg.BlockSize, Policy: policy,
		WriteSim: true, Write: opts.Write, Alloc: opts.Alloc, StoreBytes: opts.StoreBytes,
	}
	var cacheKey, resultKey string
	if cacheStore != nil {
		srcID, err := tf.sourceID()
		if err != nil {
			return err
		}
		cacheKey = store.Key(srcID, cfg.BlockSize, 0, true)
		// Result-tier probe first: a warm run prints the full reference
		// record with zero simulations and zero trace decodes. The shard
		// fan-out is not a key axis — the statistics are bit-identical
		// across shard settings (and verified so by the sharded engine's
		// own cross-check on the run that published the entry).
		resultKey = store.ResultKey(cacheKey, "ref", spec.CacheKey())
		rb, err := cacheStore.GetResult(ctx, resultKey, "ref", spec.CacheKey())
		if err == nil && rb.HasRef && len(rb.Records) == 1 && rb.Records[0].Ref != nil && rb.Records[0].Traffic != nil {
			fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
				cfg, policy, opts.Write, opts.Alloc)
			fmt.Fprintf(env.Stdout, "replay:            result-cached (0 simulations, 0 trace decodes)\n")
			printRefStats(env.Stdout, *rb.Records[0].Ref, *rb.Records[0].Traffic)
			return nil
		}
	}
	start := time.Now()
	base, cacheHit, err := materializeCached(ctx, cacheStore, cacheKey, cfg.BlockSize, true,
		func(context.Context) (*trace.BlockStream, error) {
			return tf.materialize(cfg.BlockSize, true)
		})
	if err != nil {
		return err
	}
	ss, err := trace.ShardBlockStream(base, log)
	if err != nil {
		return err
	}
	ingested := time.Since(start)

	eng, replayed, err := engine.TimedRun(ctx, "ref", spec, ss.Source, ss)
	if err != nil {
		return err
	}
	stats := eng.(engine.RefStatser).RefStats()
	traffic := eng.(engine.TrafficStatser).RefTraffic()
	parallel := engine.Parallel(eng)
	if resultKey != "" {
		// Publish the finished record for later runs; best-effort.
		cacheStore.PutResult(ctx, resultKey, &store.ResultBlob{
			Engine: "ref", SpecKey: spec.CacheKey(), HasRef: true,
			Scalars: []uint64{stats.Accesses},
			Records: []store.ResultRecord{{Config: cfg, Stats: stats.Stats, Ref: &stats, Traffic: &traffic}},
		})
	}

	fmt.Fprintf(env.Stdout, "config:            %v, %v replacement, %v, %v\n",
		cfg, policy, opts.Write, opts.Alloc)
	ingestVerb := "ingested"
	if cacheHit {
		ingestVerb = "cache-loaded"
	}
	if parallel {
		fmt.Fprintf(env.Stdout, "replay:            %d set-substreams in parallel (%s in %v, replayed in %v)\n",
			ss.NumShards(), ingestVerb, ingested.Round(time.Millisecond), replayed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(env.Stdout, "replay:            monolithic fallback (%v policy or %d sets < %d shards; %s in %v, replayed in %v)\n",
			policy, cfg.Sets, ss.NumShards(), ingestVerb, ingested.Round(time.Millisecond), replayed.Round(time.Millisecond))
	}
	printRefStats(env.Stdout, stats, traffic)
	return nil
}
