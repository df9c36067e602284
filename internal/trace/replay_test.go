package trace_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dew/internal/leakcheck"
	"dew/internal/pool"
	"dew/internal/trace"
	"dew/internal/workload"
)

// digestSim is a sequential state machine over block streams: it mixes
// every run it is fed, in order, into a running hash, so it ends in the
// state of one pass over a rung's materialized stream only if it saw
// exactly that stream. work repeats the mixing so the replay's queues
// fill up behind it. busy, when set, is shared by every simulator of a
// replay and records in its peak how many of them ran at once.
type digestSim struct {
	sum  uint64
	work int
	busy *concurrency
}

// concurrency counts the simulators running and their high-water mark.
type concurrency struct{ now, peak atomic.Int32 }

func (c *concurrency) enter() {
	n := c.now.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
}

func (d *digestSim) SimulateStream(bs *trace.BlockStream) error {
	if d.busy != nil {
		d.busy.enter()
		defer d.busy.now.Add(-1)
	}
	for i, id := range bs.IDs {
		x := id<<32 ^ uint64(bs.Runs[i])
		if bs.Kinds != nil {
			k := bs.Kinds[i]
			x ^= uint64(k.W[0])<<1 ^ uint64(k.W[1])<<17 ^ uint64(k.W[2])<<33 ^ uint64(k.Lead)<<49 ^ uint64(k.First)<<61
		}
		for j := 0; j <= d.work; j++ {
			d.sum = (d.sum ^ x) * 1099511628211
		}
	}
	return nil
}

// replayCase is one replay of a seeded workload trace: everything that
// decides the outcome, printed on failure so the case can be rerun.
type replayCase struct {
	app     workload.App
	seed    uint64
	n       int
	blocks  []int
	kinds   bool
	budget  int64
	sims    []int // simulators per rung
	workers int   // ReplaySpans' bound on simulators running at once
	work    int
}

func (c replayCase) String() string {
	return fmt.Sprintf("app=%q seed=%d n=%d blocks=%v kinds=%v budget=%d sims=%v workers=%d",
		c.app.Name, c.seed, c.n, c.blocks, c.kinds, c.budget, c.sims, c.workers)
}

// check replays c through ReplaySpans and holds every simulator's
// stream and every rung's totals to the materialized FoldLadder, the
// simulators running at once to c.workers when it is positive, and the
// span recycling to its bound: no more spans out of the pipeline at
// once than the geometry assumes, none left unrecycled, and no more
// span allocations than that bound. It returns the spans emitted.
func (c replayCase) check(t *testing.T) uint64 {
	t.Helper()
	tr := c.app.Trace(c.seed, c.n)
	var base *trace.BlockStream
	var err error
	if c.kinds {
		base, err = tr.BlockStreamWithKinds(c.blocks[0])
	} else {
		base, err = tr.BlockStream(c.blocks[0])
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	ladder, err := trace.FoldLadder(base, c.blocks)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	p, err := trace.StreamSpans(context.Background(), tr.NewSliceReader(), c.blocks[0],
		trace.SpanOptions{MemBytes: c.budget, Workers: 2, Kinds: c.kinds})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	sims := make([][]trace.StreamSimulator, len(c.blocks))
	digests := make([][]*digestSim, len(c.blocks))
	busy := &concurrency{}
	for r, n := range c.sims {
		for range n {
			d := &digestSim{work: c.work, busy: busy}
			digests[r] = append(digests[r], d)
			sims[r] = append(sims[r], d)
		}
	}
	seen := map[*trace.Span]bool{}
	totals, err := trace.ReplaySpans(context.Background(), p, c.blocks, sims, c.workers,
		func(s *trace.Span) { seen[s] = true })
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if peak := busy.peak.Load(); c.workers > 0 && int(peak) > c.workers {
		t.Errorf("%v: %d simulators ran at once", c, peak)
	}
	for r, b := range c.blocks {
		want := ladder[b]
		if got := totals[r]; got.Accesses != want.Accesses || got.Runs != uint64(want.Len()) {
			t.Errorf("%v: block %d totals %+v, want %d accesses, %d runs", c, b, got, want.Accesses, want.Len())
		}
		ref := &digestSim{work: c.work}
		ref.SimulateStream(want)
		for j, d := range digests[r] {
			if d.sum != ref.sum {
				t.Errorf("%v: block %d simulator %d saw a stream other than the materialized one", c, b, j)
			}
		}
	}
	out, peak := trace.SpanPoolStats(p)
	if out != 0 {
		t.Errorf("%v: %d spans never recycled", c, out)
	}
	if peak > trace.MaxSpansCut {
		t.Errorf("%v: %d spans out of the pipeline at once, the budget assumes at most %d", c, peak, trace.MaxSpansCut)
	}
	if len(seen) > trace.MaxSpansCut {
		t.Errorf("%v: %d distinct spans for %d emitted, want at most %d", c, len(seen), p.EmittedSpans(), trace.MaxSpansCut)
	}
	return p.EmittedSpans()
}

// TestReplaySpansMatchesSerial is the replay's differential test:
// random seeded workload traces, ladders of 1-4 rungs, kinds on and
// off, 0-2 simulators per rung, a bound of 0-3 simulators at once,
// budgets small enough for at least 50 spans. Every simulator must see
// exactly its rung's materialized stream. The seed is logged, and
// every failure names its case.
func TestReplaySpansMatchesSerial(t *testing.T) {
	defer leakcheck.Check(t)()
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	apps := workload.Apps()
	for i := 0; i < 8; i++ {
		c := replayCase{
			app:     apps[rng.Intn(len(apps))],
			seed:    rng.Uint64(),
			n:       60000 + rng.Intn(40000),
			kinds:   rng.Intn(2) == 1,
			budget:  int64(16+rng.Intn(48)) << 10,
			workers: rng.Intn(4),
		}
		b := 1 << rng.Intn(3)
		for rungs := 1 + rng.Intn(4); len(c.blocks) < rungs; b <<= 1 + rng.Intn(2) {
			c.blocks = append(c.blocks, b)
		}
		c.sims = make([]int, len(c.blocks))
		for r := range c.sims {
			c.sims[r] = rng.Intn(3)
		}
		c.sims[rng.Intn(len(c.sims))]++
		if spans := c.check(t); spans < 50 {
			t.Errorf("seed %d, %v: only %d spans", seed, c, spans)
		}
	}
}

// TestReplaySpansBudget holds the span recycling to the geometry's
// bound across budgets from 64 KiB to 8 MiB, 1-3 rungs and kinds on
// and off, with slow simulators, two per rung, so the replay's queues
// stay full — each on a lane of its own, and all on one lane.
func TestReplaySpansBudget(t *testing.T) {
	defer leakcheck.Check(t)()
	app, err := workload.Lookup("G721 Dec")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{64 << 10, 512 << 10, 8 << 20} {
		n := 60000
		if budget > 1<<20 {
			n = 400000
		}
		for _, blocks := range [][]int{{4}, {4, 16}, {4, 16, 64}} {
			for _, kinds := range []bool{false, true} {
				for _, workers := range []int{0, 1} {
					c := replayCase{app: app, seed: 1, n: n, blocks: blocks, kinds: kinds, budget: budget,
						workers: workers, work: 3}
					c.sims = make([]int, len(blocks))
					for r := range c.sims {
						c.sims[r] = 2
					}
					if spans := c.check(t); spans <= trace.MaxSpansCut {
						t.Errorf("%v: %d spans cannot fill the replay", c, spans)
					}
				}
			}
		}
	}
}

// simFault is the typed error a faultSim fails with.
type simFault struct{ name string }

func (e *simFault) Error() string { return "simulator " + e.name + " failed" }

// faultSim fails its failOn-th SimulateStream call (from 1; 0 never),
// with a *simFault or, when panics is set, a panic.
type faultSim struct {
	name   string
	failOn int
	panics bool
	calls  int
}

func (f *faultSim) SimulateStream(*trace.BlockStream) error {
	f.calls++
	if f.calls != f.failOn {
		return nil
	}
	if f.panics {
		panic(&simFault{f.name})
	}
	return &simFault{f.name}
}

// replayFaults replays a fixed trace through the ladder 4,16,64 with
// the given simulators, at most workers at once.
func replayFaults(ctx context.Context, t *testing.T, workers int, sims [][]trace.StreamSimulator) error {
	t.Helper()
	app, err := workload.Lookup("CJPEG")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.StreamSpans(ctx, workload.Stream(app.Generator(3), 80000), 4,
		trace.SpanOptions{MemBytes: 32 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = trace.ReplaySpans(ctx, p, []int{4, 16, 64}, sims, workers, nil)
	return err
}

// TestReplaySpansFault: a simulator error ends the replay with that
// error, as the simulator returned it, chosen as the serial replay
// would meet it — the earliest span, then the lowest rung, then the
// lowest simulator index — whichever lane reports first, and however
// the simulators share lanes. No goroutine outlives the replay.
func TestReplaySpansFault(t *testing.T) {
	defer leakcheck.Check(t)()
	for i := 0; i < 20; i++ {
		workers := i % 4
		// Three simulators fail on their first span: rung 16's
		// second wins.
		err := replayFaults(context.Background(), t, workers, [][]trace.StreamSimulator{
			{&faultSim{name: "a"}},
			{&faultSim{name: "b"}, &faultSim{name: "c", failOn: 1}, &faultSim{name: "d", failOn: 1}},
			{&faultSim{name: "e", failOn: 1}},
		})
		var sf *simFault
		if !errors.As(err, &sf) || sf.name != "c" || err.Error() != sf.Error() {
			t.Fatalf("run %d, workers %d: replay failed with %v, want simulator c's fault as it returned it", i, workers, err)
		}
		// The base rung fails on a later span than rung 64: rung 64's
		// fault is the one the serial replay meets first.
		err = replayFaults(context.Background(), t, workers, [][]trace.StreamSimulator{
			{&faultSim{name: "late", failOn: 6}},
			nil,
			{&faultSim{name: "early", failOn: 1}},
		})
		if !errors.As(err, &sf) || sf.name != "early" {
			t.Fatalf("run %d, workers %d: replay failed with %v, want simulator early's fault", i, workers, err)
		}
	}
}

// TestReplaySpansPanic: a simulator's panic is contained as a
// *pool.PanicError.
func TestReplaySpansPanic(t *testing.T) {
	defer leakcheck.Check(t)()
	err := replayFaults(context.Background(), t, 0, [][]trace.StreamSimulator{
		{&digestSim{}}, {&faultSim{name: "p", failOn: 3, panics: true}}, nil,
	})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("replay failed with %v, want a *pool.PanicError", err)
	}
}

// cancelSim cancels the replay's context on its third span.
type cancelSim struct {
	cancel context.CancelFunc
	calls  int
}

func (c *cancelSim) SimulateStream(*trace.BlockStream) error {
	if c.calls++; c.calls == 3 {
		c.cancel()
	}
	return nil
}

// TestReplaySpansCancel: cancelling the context mid-stream ends the
// replay with context.Canceled, whether the pipeline shares the context
// or not, and leaves no goroutine behind.
func TestReplaySpansCancel(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, shared := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		app, err := workload.Lookup("G721 Enc")
		if err != nil {
			t.Fatal(err)
		}
		pctx := context.Background()
		if shared {
			pctx = ctx
		}
		p, err := trace.StreamSpans(pctx, workload.Stream(app.Generator(2), 200000), 4,
			trace.SpanOptions{MemBytes: 32 << 10, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		sims := [][]trace.StreamSimulator{{&digestSim{}}, {&cancelSim{cancel: cancel}, &digestSim{}}}
		_, err = trace.ReplaySpans(ctx, p, []int{4, 32}, sims, 0, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shared=%v: cancelled replay returned %v, want context.Canceled", shared, err)
		}
	}
}

// TestReplaySpansRejectsBadArgs: a ladder and simulator list that do
// not match, or rungs out of order, fail before anything is replayed.
func TestReplaySpansRejectsBadArgs(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, c := range []struct {
		blocks []int
		sims   int
	}{{nil, 0}, {[]int{4, 16}, 1}, {[]int{16, 4}, 2}, {[]int{4, 4}, 2}, {[]int{4, 12}, 2}} {
		p, err := trace.StreamSpans(context.Background(), trace.Trace{}.NewSliceReader(), 4, trace.SpanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReplaySpans(context.Background(), p, c.blocks, make([][]trace.StreamSimulator, c.sims), 0, nil); err == nil {
			t.Errorf("blocks %v with %d simulator lists: want an error", c.blocks, c.sims)
		}
	}
}
