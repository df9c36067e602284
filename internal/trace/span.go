package trace

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dew/internal/pool"
)

// This file is the package's one chunk-parallel decoder: the input is
// cut into chunks, workers decode and run-compress each chunk
// (chunk.go), and an ordered stitcher merges runs across chunk
// boundaries. Instead of accumulating the whole run-compressed stream,
// the stitcher emits it as a bounded, backpressured channel of *spans*
// — contiguous BlockStream segments a consumer replays in order.
// Decode overlaps with whatever consumes the spans (fold, simulation, a
// blob spool), and the pipeline's resident state is bounded by a byte
// budget instead of the trace length, so a trace larger than RAM — or
// an endless feed — streams through in O(budget) memory.
//
// # Exactness
//
// Run formation's only mutable state is the tail run (see chunk.go);
// every run before it is final. The span stitcher therefore always
// withholds the tail run and emits only final runs, cutting spans at
// run boundaries. Concatenating the emitted spans reproduces the
// materialized stream column-for-column — same IDs, same weights, same
// uint32 overflow splits, same kind records — because the cut points
// are exactly the run boundaries materialization would have produced.
// Sequential consumers (the simulators' SimulateStream, fold's carry)
// accumulate across spans, so span-by-span replay is bit-identical to
// one monolithic replay.
//
// # Materialization
//
// The same engine is MaterializeBlockStream's .din decode: with the
// stitcher in collect mode nothing is ever cut into spans. The stream
// accumulates in fixed-size segments, never regrown, and is
// concatenated once at exact size when the decode ends.
//
// # Memory
//
// At most workers+2 chunks are in flight between producer and
// stitcher, and their buffers are recycled: a .din text buffer or a
// reader's access buffer returns to the pipeline's free list once its
// chunk is decoded, a compressor's columns once the stitcher has
// appended them. Steady-state decode therefore allocates nothing per
// chunk, and the working set beyond the stitched stream is a few
// chunks.
//
// Spans are recycled the same way when ReplaySpans consumes them: once
// the fold and every base-rung simulator have released a span, it
// returns to the pipeline and a later emitSpan cuts into its columns,
// so a steady-state streamed replay allocates nothing per span either.
// The replay holds at most three spans at once (see maxSpansCut), which
// the budget counts; its folded-rung copies and the fold's scratch it
// adds to ResidentBound when it starts. A consumer that does not hand
// spans back, such as one ranging over Spans itself, simply leaves
// them to the garbage collector.

// Span is one contiguous segment of a run-compressed stream: the
// embedded BlockStream holds final runs only, Start is the access
// offset of the span's first access within the full stream, and Seq
// numbers spans from 0. Spans arrive in order and their concatenation
// is bit-identical to the materialized stream.
type Span struct {
	BlockStream
	Start uint64
	Seq   int
}

// DefaultSpanMemBytes is the pipeline's resident-byte budget when
// SpanOptions.MemBytes is zero.
const DefaultSpanMemBytes = 64 << 20

// spanChanCap bounds the spans buffered between stitcher and consumer:
// enough to keep decode ahead of the replay loop, small enough that the
// channel never holds a meaningful share of the budget.
const spanChanCap = 2

// maxSpansCut is the most spans cut from the pending tail and not yet
// recycled: spanChanCap in the channel, one in flight to it, and three
// at ReplaySpans — the span its consumer is folding and, at the lanes
// of the base-rung simulators, one queued and one being simulated. A
// lane takes its next stream off its queue only after finishing the
// previous one, and the consumer hands a span to every lane before it
// takes the next, so all base-rung lanes together hold two distinct
// spans.
const maxSpansCut = spanChanCap + 4

// SpanOptions configures a span pipeline.
type SpanOptions struct {
	// MemBytes bounds the pipeline's resident bytes — buffered spans,
	// the pending tail, and in-flight decode chunks; 0 means
	// DefaultSpanMemBytes. The bound is a working-set target, not a hard
	// allocator cap: tiny budgets are clamped to the minimum workable
	// chunk and span sizes (see ResidentBound for the resolved figure).
	MemBytes int64
	// Workers bounds the decode/compress goroutines; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Kinds selects the kind-preserving channel on every span.
	Kinds bool
}

// StreamPipeline is a running span pipeline. Consume Spans until the
// channel closes, then check Err; Close abandons the pipeline early
// (cancel + drain) and is safe to defer alongside normal consumption.
type StreamPipeline struct {
	spans  chan *Span
	done   chan struct{}
	cancel context.CancelFunc
	err    error
	closer io.Closer

	memBytes int64
	resident int64
	spanRuns int
	chunkAcc int
	workers  int
	kinds    bool

	// Recycled per-chunk buffers and spans (see "Memory" above).
	text  freeList[[]byte]
	accs  freeList[[]Access]
	cols  freeList[*chunkCompressor]
	spanP spanPool

	spansOut atomic.Uint64
	accOut   atomic.Uint64
}

// Spans returns the ordered span channel; it closes when the input is
// exhausted, the context is cancelled, or the pipeline fails.
func (p *StreamPipeline) Spans() <-chan *Span { return p.spans }

// Err blocks until the pipeline has fully stopped and returns its
// terminal error: nil after a complete stream, the context's error
// after cancellation, or the decode/stitch failure.
func (p *StreamPipeline) Err() error {
	<-p.done
	return p.err
}

// Close abandons the pipeline: it cancels the producer, drains the span
// channel, and waits for every pipeline goroutine to exit. Safe after
// normal completion and safe to call more than once.
func (p *StreamPipeline) Close() {
	p.cancel()
	for range p.spans {
	}
	<-p.done
}

// MemBytes returns the resolved resident-byte budget.
func (p *StreamPipeline) MemBytes() int64 { return p.memBytes }

// ResidentBound returns the pipeline's worst-case resident bytes under
// the resolved geometry: every bufferable span live at once plus every
// worker's in-flight decode chunk, and, once ReplaySpans has started
// on the pipeline, the folded-rung spans the replay holds. This is the
// figure provenance reports as "peak resident"; read it after the
// replay.
func (p *StreamPipeline) ResidentBound() int64 { return p.resident }

// EmittedSpans returns the spans emitted so far (final once Err
// returns).
func (p *StreamPipeline) EmittedSpans() uint64 { return p.spansOut.Load() }

// EmittedAccesses returns the accesses covered by emitted spans.
func (p *StreamPipeline) EmittedAccesses() uint64 { return p.accOut.Load() }

// bytesPerSpanRun estimates the resident cost of one buffered run.
func bytesPerSpanRun(kinds bool) int64 {
	if kinds {
		return 8 + 4 + 20 // id + weight + KindRun
	}
	return 8 + 4
}

// spanGeometry resolves the budget into span and chunk sizes: half the
// budget to buffered spans, half to in-flight decode chunks, both
// clamped to workable minima so a tiny budget degrades to small spans
// instead of failing. workers must already be resolved.
func spanGeometry(memBytes int64, workers int, kinds bool) (spanRuns, chunkAcc int, resident int64) {
	bpr := bytesPerSpanRun(kinds)
	// Buffered spans: every span cut and not yet recycled, plus the
	// one being built in the pending tail.
	liveSpans := int64(maxSpansCut + 1)
	spanRuns = int(memBytes / 2 / (bpr * liveSpans))
	spanRuns = max(256, min(spanRuns, 1<<22))
	// In-flight chunks: one per worker plus one queued and one being
	// produced; each costs the raw accesses (16 B) plus worst-case
	// run-compressed columns.
	perAcc := int64(16) + bpr
	liveChunks := int64(workers + 2)
	chunkAcc = int(memBytes / 2 / (perAcc * liveChunks))
	chunkAcc = max(1024, min(chunkAcc, defaultIngestChunk))
	resident = liveSpans*int64(spanRuns)*bpr + liveChunks*int64(chunkAcc)*perAcc
	return spanRuns, chunkAcc, resident
}

// spanStitcher consumes runChunks in stream order, maintains the
// pending tail stream, and emits final runs as spans.
//
// In collect mode (segRuns > 0) it never emits: the whole stream
// accumulates, the materialized result once the pipeline ends cleanly
// (collected). So that a long stream is not copied over and over by
// append's regrowth, pend is then a live segment of at most segRuns
// runs. When it is full, every run but the mutable tail is sealed into
// segs and the tail starts a fresh segment allocated at full size;
// collected concatenates the segments once, at exact size.
type spanStitcher struct {
	pend     BlockStream // pending runs; only the last is mutable
	start    uint64      // access offset of pend's first access
	seq      int
	spanRuns int
	kinds    bool
	segRuns  int           // collect mode's segment size in runs; 0 streams spans
	segs     []BlockStream // collect mode's sealed segments, in order
	spans    *spanPool
	emit     func(*Span) error
}

// defaultSegRuns is collect mode's segment size: 2^18 runs, 3 MiB of
// ID and run columns (8 MiB with kinds) — few enough segments that
// sealing costs nothing measurable, small enough that the one partly
// filled segment wastes little.
const defaultSegRuns = 1 << 18

// makeRoom returns how many runs pend takes before it must grow.
// Streaming, pend grows freely (span cuts keep it short). Collecting, a
// full live segment is sealed first, so the room is at least one run.
func (st *spanStitcher) makeRoom() int {
	if st.segRuns == 0 {
		return math.MaxInt
	}
	p := &st.pend
	n := len(p.IDs)
	if n < st.segRuns {
		return st.segRuns - n
	}
	st.segs = append(st.segs, BlockStream{IDs: p.IDs[:n-1], Runs: p.Runs[:n-1]})
	ids, runs := make([]uint64, 1, st.segRuns), make([]uint32, 1, st.segRuns)
	ids[0], runs[0] = p.IDs[n-1], p.Runs[n-1]
	p.IDs, p.Runs = ids, runs
	if st.kinds {
		st.segs[len(st.segs)-1].Kinds = p.Kinds[:n-1]
		kinds := make([]KindRun, 1, st.segRuns)
		kinds[0] = p.Kinds[n-1]
		p.Kinds = kinds
	}
	return st.segRuns - 1
}

// add appends one chunk in stream order: chunk edges replay through the
// per-access tail machine, the interior — final regardless of its
// neighbours — bulk-appends.
func (st *spanStitcher) add(c *runChunk) error {
	p := &st.pend
	// An edge record adds at most one run: its weight is below the
	// uint32 limit, so what overflows the tail fits one new run.
	appendEdge := func(i int) {
		st.makeRoom()
		if st.kinds {
			p.appendKindRun(c.ids[i], c.kinds[i])
		} else {
			p.appendRun(c.ids[i], c.runs[i])
		}
	}
	for i := 0; i < c.head; i++ {
		appendEdge(i)
	}
	for lo := c.head; lo < c.tail; {
		hi := lo + min(c.tail-lo, st.makeRoom())
		p.IDs = append(p.IDs, c.ids[lo:hi]...)
		p.Runs = append(p.Runs, c.runs[lo:hi]...)
		if st.kinds {
			p.Kinds = append(p.Kinds, c.kinds[lo:hi]...)
		}
		for _, w := range c.runs[lo:hi] {
			p.Accesses += uint64(w)
		}
		lo = hi
	}
	for i := max(c.tail, c.head); i < len(c.ids); i++ {
		appendEdge(i)
	}
	return st.flush(false)
}

// collected returns the stream a collecting stitcher has accumulated:
// its sealed segments and the live one, concatenated at exact size.
func (st *spanStitcher) collected() *BlockStream {
	if len(st.segs) == 0 {
		return &st.pend
	}
	segs := append(st.segs, st.pend)
	n := 0
	for _, sg := range segs {
		n += len(sg.IDs)
	}
	bs := &BlockStream{BlockSize: st.pend.BlockSize, Accesses: st.pend.Accesses,
		IDs: make([]uint64, 0, n), Runs: make([]uint32, 0, n)}
	if st.kinds {
		bs.Kinds = make([]KindRun, 0, n)
	}
	for _, sg := range segs {
		bs.IDs = append(bs.IDs, sg.IDs...)
		bs.Runs = append(bs.Runs, sg.Runs...)
		if st.kinds {
			bs.Kinds = append(bs.Kinds, sg.Kinds...)
		}
	}
	return bs
}

// flush emits spans of up to spanRuns final runs. While the stream may
// continue the mutable tail run is withheld; finish passes final to
// drain everything. A collecting stitcher keeps everything pending.
func (st *spanStitcher) flush(final bool) error {
	if st.segRuns > 0 {
		return nil
	}
	for {
		avail := len(st.pend.IDs)
		if !final {
			avail-- // the tail run may still grow
		}
		if avail <= 0 || (!final && avail < st.spanRuns) {
			break
		}
		if err := st.emitSpan(min(avail, st.spanRuns)); err != nil {
			return err
		}
	}
	return nil
}

// emitSpan cuts the first n (final) pending runs into a Span, reusing
// a recycled span's columns when there is one, and compacts the pending
// tail.
func (st *spanStitcher) emitSpan(n int) error {
	s := st.spans.get()
	s.Seq, s.Start = st.seq, st.start
	s.BlockSize = st.pend.BlockSize
	s.IDs = append(s.IDs[:0], st.pend.IDs[:n]...)
	s.Runs = append(s.Runs[:0], st.pend.Runs[:n]...)
	if st.kinds {
		s.Kinds = append(s.Kinds[:0], st.pend.Kinds[:n]...)
	}
	s.Accesses = 0
	for _, w := range s.Runs {
		s.Accesses += uint64(w)
	}
	m := copy(st.pend.IDs, st.pend.IDs[n:])
	st.pend.IDs = st.pend.IDs[:m]
	copy(st.pend.Runs, st.pend.Runs[n:])
	st.pend.Runs = st.pend.Runs[:m]
	if st.kinds {
		copy(st.pend.Kinds, st.pend.Kinds[n:])
		st.pend.Kinds = st.pend.Kinds[:m]
	}
	st.pend.Accesses -= s.Accesses
	st.start += s.Accesses
	st.seq++
	return st.emit(s)
}

// freeList is a bounded pool of reusable buffers: get hands back a
// recycled one, or the zero value when there is none; put keeps one
// unless the list is full.
type freeList[T any] chan T

func (f freeList[T]) get() T {
	select {
	case v := <-f:
		return v
	default:
		var zero T
		return zero
	}
}

func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}

// spanPool recycles the spans a replay has released (see "Memory"
// above). out counts the spans cut and not yet recycled; peak is its
// high-water mark, observed at recycling, which maxSpansCut bounds
// while ReplaySpans consumes the pipeline.
type spanPool struct {
	free      freeList[*Span]
	out, peak atomic.Int64
}

func (sp *spanPool) get() *Span {
	sp.out.Add(1)
	if s := sp.free.get(); s != nil {
		return s
	}
	return new(Span)
}

func (sp *spanPool) put(s *Span) {
	n := sp.out.Add(-1) + 1
	for pk := sp.peak.Load(); n > pk && !sp.peak.CompareAndSwap(pk, n); pk = sp.peak.Load() {
	}
	sp.free.put(s)
}

// inFlight is the most chunks the pipeline holds between producer and
// stitcher: one per worker, one queued and one being read.
func (p *StreamPipeline) inFlight() int { return p.workers + 2 }

// newStreamPipeline validates geometry and builds the pipeline shell
// and its stitcher.
func newStreamPipeline(blockSize int, opts SpanOptions) (*StreamPipeline, *spanStitcher, error) {
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		return nil, nil, fmt.Errorf("trace: block size must be a positive power of two, got %d", blockSize)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memBytes := opts.MemBytes
	if memBytes <= 0 {
		memBytes = DefaultSpanMemBytes
	}
	spanRuns, chunkAcc, resident := spanGeometry(memBytes, workers, opts.Kinds)
	p := &StreamPipeline{
		spans:    make(chan *Span, spanChanCap),
		done:     make(chan struct{}),
		memBytes: memBytes,
		resident: resident,
		spanRuns: spanRuns,
		chunkAcc: chunkAcc,
		workers:  workers,
		kinds:    opts.Kinds,
	}
	p.text = make(freeList[[]byte], p.inFlight())
	p.accs = make(freeList[[]Access], p.inFlight())
	p.cols = make(freeList[*chunkCompressor], p.inFlight())
	p.spanP.free = make(freeList[*Span], maxSpansCut)
	st := &spanStitcher{
		pend:     BlockStream{BlockSize: blockSize},
		spanRuns: spanRuns,
		kinds:    opts.Kinds,
		spans:    &p.spanP,
	}
	if opts.Kinds {
		st.pend.Kinds = []KindRun{}
	}
	return p, st, nil
}

// producer cuts the input into chunk jobs, numbered from 0 in stream
// order. emit blocks until the chunk may go in flight and reports
// false once the pipeline is stopping; the producer then returns.
type producer func(emit func(ingestJob) bool) error

// start launches the pipeline goroutines: produce → compress workers →
// ordered stitch, with the stitch on its own goroutine emitting spans
// under backpressure. Every goroutine
// body runs under pool.Protect — a panic anywhere surfaces as the
// pipeline's terminal *pool.PanicError, never a crash — and the driver
// never exits with pipeline goroutines still live.
func (p *StreamPipeline) start(ctx context.Context, st *spanStitcher, produce producer) {
	ctx, p.cancel = context.WithCancel(ctx)
	st.emit = func(s *Span) error {
		select {
		case p.spans <- s:
			p.spansOut.Add(1)
			p.accOut.Add(s.Accesses)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	jobs := make(chan ingestJob, p.workers)
	results := make(chan ingestResult, p.workers)
	// One token per emitted chunk, taken by emit and returned when the
	// stitcher takes the chunk off its queue; with the chunk the
	// producer is reading, inFlight chunks at most.
	slots := make(chan struct{}, p.inFlight()-1)
	var abort atomic.Bool
	emit := func(j ingestJob) bool {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return false
		}
		if abort.Load() || ctx.Err() != nil {
			<-slots
			return false
		}
		jobs <- j
		return true
	}

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cc := p.cols.get()
				if cc == nil {
					cc = new(chunkCompressor)
				}
				cc.reset(st.kinds)
				err := pool.Protect(func() error {
					if err := j.run(cc); err != nil {
						return err
					}
					cc.finishEdges()
					return nil
				})
				results <- ingestResult{seq: j.seq, cc: cc, err: err}
			}
		}()
	}
	prodErr := make(chan error, 1)
	go func() {
		err := pool.Protect(func() error { return produce(emit) })
		close(jobs)
		prodErr <- err
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	closer := p.closer
	go func() {
		defer close(p.done)
		defer close(p.spans)
		if closer != nil {
			defer closer.Close()
		}
		// Ordered stitch: chunks apply strictly in seq order, so the
		// emitted spans are always an exact prefix of the input at a run
		// boundary. A failed chunk queues in the same order, so the
		// error reported is the lowest-numbered chunk's — the one the
		// serial decode meets first — whichever worker finishes first.
		pending := map[int]ingestResult{}
		next := 0
		var firstErr error
		for res := range results {
			if firstErr != nil {
				<-slots // drain
				continue
			}
			if res.err != nil {
				abort.Store(true) // later chunks are moot; earlier ones still count
			}
			pending[res.seq] = res
			firstErr = pool.Protect(func() error {
				for {
					r, ok := pending[next]
					if !ok {
						return nil
					}
					delete(pending, next)
					<-slots
					if r.err != nil {
						return r.err
					}
					if err := st.add(&r.cc.c); err != nil {
						return err
					}
					p.cols.put(r.cc)
					next++
				}
			})
			if firstErr != nil {
				abort.Store(true)
				for range pending {
					<-slots
				}
				clear(pending)
			}
		}
		if err := <-prodErr; err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr == nil {
			firstErr = pool.Protect(func() error { return st.flush(true) })
		}
		p.err = firstErr
	}()
}

// StreamSpans starts a span pipeline over a generic trace reader at the
// given block size: decode and run compression proceed chunk-parallel
// while the caller consumes spans. As in MaterializeBlockStream, a
// *DinReader nothing has been read from yet — r itself or reached
// through Unwrap() Reader methods — has its text parsed chunk-parallel
// too; the stream and the error for a corrupt input are the same as
// through the reader. Cancelling ctx (or Close) stops the pipeline at
// chunk granularity with every goroutine drained.
func StreamSpans(ctx context.Context, r Reader, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	return streamSpans(ctx, r, nil, blockSize, opts)
}

// streamSpans is StreamSpans with a closer the pipeline closes once it
// has stopped (nil for none).
func streamSpans(ctx context.Context, r Reader, closer io.Closer, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	p.closer = closer
	produce := p.readerProducer(r, blockSize, p.chunkAcc)
	if src := unreadDinInput(r); src != nil {
		produce = p.dinProducer(src, blockSize, dinChunkBytes)
		// r then observes the end of its input, as after a
		// materialization, so a wrapper that releases resources at
		// io.EOF does so.
		eof := closeFunc(func() error {
			_, _ = r.Next()
			return nil
		})
		p.closer = eof
		if closer != nil {
			p.closer = multiCloser{eof, closer}
		}
	}
	p.start(ctx, st, produce)
	return p, nil
}

// readerProducer emits chunk jobs from a batched access reader.
func (p *StreamPipeline) readerProducer(r Reader, blockSize int, chunkSize int) producer {
	off := blockShift(blockSize)
	return func(emit func(ingestJob) bool) error {
		br := Batch(r)
		for seq := 0; ; seq++ {
			buf := p.accs.get()
			if buf == nil {
				buf = make([]Access, chunkSize)
			}
			filled := 0
			var err error
			for filled < chunkSize {
				var n int
				n, err = br.ReadBatch(buf[filled:])
				filled += n
				if err != nil {
					break
				}
			}
			if filled > 0 {
				accs := buf[:filled]
				if !emit(ingestJob{seq: seq, run: func(cc *chunkCompressor) error {
					defer p.accs.put(buf)
					if cc.kinds {
						for _, a := range accs {
							if !a.Kind.Valid() {
								return fmt.Errorf("trace: invalid access kind %v at address %#x", a.Kind, a.Addr)
							}
							cc.addAccess(a.Addr>>off, a.Kind)
						}
					} else {
						for _, a := range accs {
							cc.addOne(a.Addr >> off)
						}
					}
					return nil
				}}) {
					return nil
				}
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	}
}

// dinProducer emits one parse job per line-aligned chunk of .din text,
// read into recycled buffers of about chunkBytes. The partial line at a
// buffer's end moves to the start of the next one. A buffer holding no
// line end grows, up to maxDinLine bytes; a line that fills that much
// is rejected exactly as DinReader rejects it. Because no buffer is
// larger, every line a buffer does hold whole is within the limit.
func (p *StreamPipeline) dinProducer(r io.Reader, blockSize int, chunkBytes int) producer {
	off := blockShift(blockSize)
	newBuf := func(need int) []byte {
		if b := p.text.get(); cap(b) >= need {
			return b[:0]
		}
		return make([]byte, 0, min(max(need, chunkBytes), maxDinLine))
	}
	return func(emit func(ingestJob) bool) error {
		seq, line := 0, 1 // line numbers the line that starts buf
		buf := newBuf(chunkBytes)
		for {
			var err error
			buf, err = fillDin(r, buf)
			// A read error ends the input like EOF does: the bytes
			// already read still parse, a partial last line included, as
			// bufio.Scanner parses them, and a corrupt line among them
			// wins over the read error because chunk errors do.
			end := err != nil
			cut := len(buf) // at the end of input every byte left is whole lines
			if !end {
				cut = bytes.LastIndexByte(buf, '\n') + 1
				if cut == 0 {
					if len(buf) >= maxDinLine {
						return &CorruptError{Format: "din", Line: line, Offset: -1,
							Msg: "line too long", Err: bufio.ErrTooLong}
					}
					grown := make([]byte, len(buf), min(2*cap(buf), maxDinLine))
					copy(grown, buf)
					buf = grown
					continue
				}
			}
			chunk, base := buf[:cut], line
			line += bytes.Count(chunk, []byte{'\n'})
			if !end {
				rem := buf[cut:]
				buf = append(newBuf(len(rem)+max(1, chunkBytes/2)), rem...)
			}
			if len(chunk) > 0 {
				if !emit(ingestJob{seq: seq, run: func(cc *chunkCompressor) error {
					defer p.text.put(chunk)
					return parseDinInto(cc, chunk, base, off)
				}}) {
					return nil
				}
				seq++
			}
			if end {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}
}

// fillDin reads from r into buf's spare capacity until it is full or r
// returns an error. Only a bare io.EOF is the end of input, as for
// bufio.Scanner: an io.ErrUnexpectedEOF from r itself is a failure
// (io.ReadFull would mistake it for a short final read).
func fillDin(r io.Reader, buf []byte) ([]byte, error) {
	for len(buf) < cap(buf) {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// materializeDin decodes .din text into a BlockStream with the span
// pipeline's chunk-parallel parse, the stitcher collecting instead of
// cutting spans. workers <= 0 means GOMAXPROCS; chunkBytes sizes the
// text chunks and segRuns (at least 2) the stitcher's segments.
func materializeDin(r io.Reader, blockSize int, kinds bool, workers, chunkBytes, segRuns int) (*BlockStream, error) {
	p, st, err := newStreamPipeline(blockSize, SpanOptions{Workers: workers, Kinds: kinds})
	if err != nil {
		return nil, err
	}
	st.segRuns = max(2, segRuns)
	// MaterializeBlockStream takes no context; the decode runs to the
	// end of its input or its first error.
	p.start(context.TODO(), st, p.dinProducer(r, blockSize, chunkBytes))
	defer p.Close()
	if err := p.Err(); err != nil {
		return nil, err
	}
	return st.collected(), nil
}

// StreamFileSpans starts a span pipeline over a trace file opened as
// OpenFile opens it — ".gz" decompressed, .din text parsed
// chunk-parallel. The pipeline closes the file when it stops.
func StreamFileSpans(ctx context.Context, name string, blockSize int, opts SpanOptions) (*StreamPipeline, error) {
	r, closer, err := OpenFile(name)
	if err != nil {
		return nil, err
	}
	p, err := streamSpans(ctx, r, closer, blockSize, opts)
	if err != nil {
		closer.Close()
		return nil, err
	}
	return p, nil
}

// streamWeightedSpans is the test entry feeding pre-weighted (id, run
// [, kind]) columns through the span pipeline, one chunk per column set
// — the only way to exercise uint32 run-overflow cuts at span
// boundaries without decoding billions of accesses. spanRuns > 0
// overrides the geometry's span size so tests can put boundaries
// anywhere.
func streamWeightedSpans(ctx context.Context, blockSize int, opts SpanOptions, spanRuns int,
	ids [][]uint64, runs [][]uint32, kinds [][]KindRun) (*StreamPipeline, error) {
	opts.Kinds = kinds != nil
	p, st, err := newStreamPipeline(blockSize, opts)
	if err != nil {
		return nil, err
	}
	if spanRuns > 0 {
		st.spanRuns = spanRuns
	}
	p.start(ctx, st, func(emit func(ingestJob) bool) error {
		for seq := range ids {
			cids, cruns := ids[seq], runs[seq]
			var ckinds []KindRun
			if kinds != nil {
				ckinds = kinds[seq]
			}
			if !emit(ingestJob{seq: seq, run: func(cc *chunkCompressor) error {
				for i := range cids {
					if ckinds != nil {
						cc.addKindRun(cids[i], cruns[i], ckinds[i])
					} else {
						cc.add(cids[i], cruns[i])
					}
				}
				return nil
			}}) {
				return nil
			}
		}
		return nil
	})
	return p, nil
}
