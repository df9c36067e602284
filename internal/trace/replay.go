package trace

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dew/internal/pool"
)

// StreamSimulator is what ReplaySpans drives: a sequential state
// machine whose SimulateStream calls continue where the previous call
// stopped, so feeding a stream's spans in order accumulates exactly what
// one call over the whole stream would. It must not keep the stream
// after returning. engine.Engine satisfies it.
type StreamSimulator interface {
	SimulateStream(*BlockStream) error
}

// RungTotals is the shape of one rung's stream over a replay: the
// accesses and runs of every span the rung was fed.
type RungTotals struct {
	Accesses, Runs uint64
}

// replayBufs is how many folded spans a rung with simulators cycles
// through: one being simulated while the next is copied and queued.
const replayBufs = 2

// ReplaySpans replays a running span pipeline through a block-size
// ladder and returns each rung's totals. blocks lists the rungs in
// ascending order, blocks[0] being p's block size; sims[r] are the
// simulators fed rung r's stream, none for a rung that is only counted.
// Each simulator must appear once. tap, when non-nil, sees every
// finest-rung span before it is folded and must not keep it.
//
// The simulators run on lanes, goroutines of their own: one lane per
// simulator, or, when workers is positive and smaller, workers lanes
// with the simulators dealt round-robin onto them in rung then index
// order, so at most workers simulators run at once. A lane takes its
// rungs' spans in stream order through a queue of depth one and runs
// its simulators of a span's rung one after another, so every
// simulator's results are bit-identical to one serial pass over its
// rung's stream. The fold (LadderFolder), the tap and the pipeline's
// spans stay on the calling goroutine. Base-rung simulators share the
// pipeline's spans without a copy, and each span goes back to the
// pipeline once the fold and every lane fed it have released it; each
// coarser rung's folded span is copied into one of replayBufs buffers
// of that rung. In steady state the replay allocates nothing per span.
//
// ReplaySpans consumes p to the end and stops it. On failure it returns
// the error the serial replay would meet first: the pipeline's error
// after every span it delivered, ctx's error once cancelled, or a
// simulator's error, as the simulator returned it — from the earliest
// finest-rung span, then the lowest rung, then the lowest simulator
// index. A panic in a simulator is contained as a *pool.PanicError.
// Every goroutine it started has exited when it returns.
func ReplaySpans(ctx context.Context, p *StreamPipeline, blocks []int, sims [][]StreamSimulator,
	workers int, tap func(*Span)) ([]RungTotals, error) {
	defer p.Close()
	if len(blocks) == 0 || len(sims) != len(blocks) {
		return nil, fmt.Errorf("trace: replay of %d rungs given simulators for %d", len(blocks), len(sims))
	}
	for r := 1; r < len(blocks); r++ {
		if blocks[r] <= blocks[r-1] {
			return nil, fmt.Errorf("trace: replay rungs %v are not ascending", blocks)
		}
	}
	folder, err := NewLadderFolder(blocks[0], blocks, p.kinds)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		spans:  &p.spanP,
		rungOf: make(map[int]int, len(blocks)),
		lanes:  make([][]*replayLane, len(blocks)),
		free:   make([]freeList[*heldStream], len(blocks)),
		totals: make([]RungTotals, len(blocks)),
		finest: make(freeList[*heldStream], maxSpansCut),
	}
	// The fold's scratch holds a folded span per doubling stage, and
	// each rung with simulators replayBufs copies; none has more runs
	// than the finest span it was folded from.
	held := len(folder.stages)
	for r, b := range blocks {
		rp.rungOf[b] = r
		if r > 0 && len(sims[r]) > 0 {
			rp.free[r] = make(freeList[*heldStream], replayBufs)
			for range replayBufs {
				h := &heldStream{rung: r, home: rp.free[r]}
				h.bs = &h.own
				rp.free[r] <- h
			}
			held += replayBufs
		}
	}
	p.resident += int64(held) * int64(p.spanRuns) * bytesPerSpanRun(p.kinds)

	n := 0
	for _, rs := range sims {
		n += len(rs)
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	lanes := make([]*replayLane, workers)
	for j := range lanes {
		lanes[j] = &replayLane{sims: make([][]laneSim, len(blocks)), in: make(chan *heldStream, 1)}
	}
	i := 0
	for r, rs := range sims {
		for idx, sim := range rs {
			l := lanes[i%workers]
			if len(l.sims[r]) == 0 {
				rp.lanes[r] = append(rp.lanes[r], l)
			}
			l.sims[r] = append(l.sims[r], laneSim{sim, idx})
			i++
		}
	}
	for _, l := range lanes {
		rp.wg.Add(1)
		go l.run(rp)
	}

	err = rp.consume(ctx, p, folder, tap, lanes)
	// Every lane has stopped. A lane's error wins over the consumer's:
	// the lane failed on a span the consumer had already handed out.
	var first *replayLane
	for _, l := range lanes {
		if l.err != nil && (first == nil || slices.Compare(l.errAt[:], first.errAt[:]) < 0) {
			first = l
		}
	}
	if first != nil {
		return nil, first.err
	}
	if err != nil {
		return nil, err
	}
	return rp.totals, nil
}

// replayer is ReplaySpans' state on the consuming goroutine, plus what
// its lanes share.
type replayer struct {
	spans  *spanPool
	rungOf map[int]int
	lanes  [][]*replayLane         // per rung: the lanes fed its spans
	free   []freeList[*heldStream] // per rung: its folded-span buffers
	totals []RungTotals
	finest freeList[*heldStream] // holders of the pipeline's spans
	cur    *heldStream           // the finest span being folded
	at     int                   // its index in the stream
	failed atomic.Bool           // some lane has failed
	wg     sync.WaitGroup
}

// consume feeds every span through the fold and the lanes, then closes
// the lanes and waits for them. It returns early, with nil, once a lane
// has failed.
func (rp *replayer) consume(ctx context.Context, p *StreamPipeline, folder *LadderFolder, tap func(*Span), lanes []*replayLane) error {
	defer func() {
		for _, l := range lanes {
			close(l.in)
		}
		rp.wg.Wait()
	}()
	visit := rp.visit
	for s := range p.Spans() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rp.failed.Load() {
			return nil
		}
		if tap != nil {
			tap(s)
		}
		h := rp.finest.get()
		if h == nil {
			h = &heldStream{home: rp.finest}
		}
		h.bs, h.span, h.at = &s.BlockStream, s, rp.at
		h.refs.Store(1) // the fold's
		rp.cur = h
		err := folder.Feed(&s.BlockStream, visit)
		h.release(rp.spans)
		rp.at++
		if err != nil {
			return err
		}
	}
	if err := p.Err(); err != nil || rp.failed.Load() {
		return err
	}
	return folder.Flush(visit)
}

// visit counts one rung's span and queues it on the rung's lanes: the
// finest span itself, or a copy of a coarser rung's folded span, which
// is the folder's scratch.
func (rp *replayer) visit(b int, s *BlockStream) error {
	r := rp.rungOf[b]
	rp.totals[r].Accesses += s.Accesses
	rp.totals[r].Runs += uint64(s.Len())
	lanes := rp.lanes[r]
	if len(lanes) == 0 {
		return nil
	}
	h := rp.cur
	if r == 0 {
		h.refs.Add(int32(len(lanes)))
	} else {
		h = <-rp.free[r]
		h.own.BlockSize, h.own.Accesses = s.BlockSize, s.Accesses
		h.own.IDs = append(h.own.IDs[:0], s.IDs...)
		h.own.Runs = append(h.own.Runs[:0], s.Runs...)
		if s.Kinds != nil {
			h.own.Kinds = append(h.own.Kinds[:0], s.Kinds...)
		}
		h.at = rp.at
		h.refs.Store(int32(len(lanes)))
	}
	for _, l := range lanes {
		l.in <- h
	}
	return nil
}

// heldStream is a stream queued on lanes. refs counts the holders yet
// to release it; the last release returns it to home, and a finest
// span to the pipeline.
type heldStream struct {
	bs   *BlockStream
	rung int
	at   int // index of the finest span it derives from
	refs atomic.Int32
	span *Span       // the pipeline's span, for the finest rung
	own  BlockStream // the copy, for a coarser rung (bs points here)
	home freeList[*heldStream]
}

func (h *heldStream) release(sp *spanPool) {
	if h.refs.Add(-1) > 0 {
		return
	}
	if h.span != nil {
		sp.put(h.span)
		h.span = nil
	}
	h.home.put(h)
}

// replayLane is one goroutine of the replay: it simulates the streams
// queued on in, in order, on its simulators of each stream's rung, and
// releases each. After a failure it keeps releasing what arrives,
// unsimulated, until in closes.
type replayLane struct {
	sims  [][]laneSim // per rung, ascending index
	in    chan *heldStream
	err   error
	errAt [3]int // the failure's finest span index, rung and simulator index
}

// laneSim is a simulator and its index within its rung.
type laneSim struct {
	sim StreamSimulator
	idx int
}

func (l *replayLane) run(rp *replayer) {
	defer rp.wg.Done()
	for h := range l.in {
		for _, s := range l.sims[h.rung] {
			if l.err != nil {
				break
			}
			if err := pool.Protect(func() error { return s.sim.SimulateStream(h.bs) }); err != nil {
				l.err, l.errAt = err, [3]int{h.at, h.rung, s.idx}
				rp.failed.Store(true)
			}
		}
		h.release(rp.spans)
	}
}
